module Json = Dgc_telemetry.Json

type row = {
  e_trace : string;
  e_root : string;
  e_started : float;
  e_concluded : float option;
  e_outcome : string option;
  e_frames : int;
  e_calls : int;
  e_retries : int;
  e_memo_hits : int;
  e_timeouts : int;
  e_reports : int;
  e_kinds : (string * int * int) list;
}

let msg_total e = List.fold_left (fun a (_, n, _) -> a + n) 0 e.e_kinds
let byte_total e = List.fold_left (fun a (_, _, b) -> a + b) 0 e.e_kinds

type rollup = {
  r_traces : int;
  r_collected : int;  (** traces concluded Garbage *)
  r_live : int;
  r_msgs : int;
  r_bytes : int;
  r_frames : int;
  r_retries : int;
  r_memo_hits : int;
  r_msgs_per_cycle_milli : int;
  r_bytes_per_cycle_milli : int;
}

(* Cost per *successfully collected* cycle amortises the traces that
   concluded Live or never concluded: that protocol budget was spent
   either way. Ratios are integer milli-units so exact-counter bench
   gates can pin them. *)
let rollup rows =
  let count outcome =
    List.length (List.filter (fun e -> e.e_outcome = Some outcome) rows)
  in
  let sum f = List.fold_left (fun a e -> a + f e) 0 rows in
  let collected = count "garbage" in
  let msgs = sum msg_total and bytes = sum byte_total in
  let per_cycle total = if collected = 0 then 0 else 1000 * total / collected in
  {
    r_traces = List.length rows;
    r_collected = collected;
    r_live = count "live";
    r_msgs = msgs;
    r_bytes = bytes;
    r_frames = sum (fun e -> e.e_frames);
    r_retries = sum (fun e -> e.e_retries);
    r_memo_hits = sum (fun e -> e.e_memo_hits);
    r_msgs_per_cycle_milli = per_cycle msgs;
    r_bytes_per_cycle_milli = per_cycle bytes;
  }

let critical_path_ms e =
  Option.map (fun c -> (c -. e.e_started) *. 1000.) e.e_concluded

let describe e =
  Printf.sprintf
    "ledger %s: msgs=%d bytes=%d frames=%d calls=%d retries=%d memo_hits=%d \
     timeouts=%d reports=%d%s"
    e.e_trace (msg_total e) (byte_total e) e.e_frames e.e_calls e.e_retries
    e.e_memo_hits e.e_timeouts e.e_reports
    (match critical_path_ms e with
    | Some ms -> Printf.sprintf " critical_path=%.1fms" ms
    | None -> " (no conclusion)")

let json_of_row e =
  let by_kind f = Json.Obj (List.map f e.e_kinds) in
  Json.Obj
    [
      ("trace", Json.Str e.e_trace);
      ("root", Json.Str e.e_root);
      ("started", Json.Float e.e_started);
      ( "concluded",
        match e.e_concluded with Some c -> Json.Float c | None -> Json.Null );
      ( "outcome",
        match e.e_outcome with Some o -> Json.Str o | None -> Json.Null );
      ("frames", Json.Int e.e_frames);
      ("calls", Json.Int e.e_calls);
      ("retries", Json.Int e.e_retries);
      ("memo_hits", Json.Int e.e_memo_hits);
      ("timeouts", Json.Int e.e_timeouts);
      ("reports", Json.Int e.e_reports);
      ("msgs", by_kind (fun (k, n, _) -> (k, Json.Int n)));
      ("bytes", by_kind (fun (k, _, b) -> (k, Json.Int b)));
      ( "critical_path_ms",
        match critical_path_ms e with
        | Some ms -> Json.Float ms
        | None -> Json.Null );
    ]

let json_of_rollup r =
  Json.Obj
    [
      ("traces", Json.Int r.r_traces);
      ("collected", Json.Int r.r_collected);
      ("live", Json.Int r.r_live);
      ("msgs", Json.Int r.r_msgs);
      ("bytes", Json.Int r.r_bytes);
      ("frames", Json.Int r.r_frames);
      ("retries", Json.Int r.r_retries);
      ("memo_hits", Json.Int r.r_memo_hits);
      ("msgs_per_cycle_milli", Json.Int r.r_msgs_per_cycle_milli);
      ("bytes_per_cycle_milli", Json.Int r.r_bytes_per_cycle_milli);
    ]

let to_json rows =
  Json.Obj
    [
      ("traces", Json.Arr (List.map json_of_row rows));
      ("rollup", json_of_rollup (rollup rows));
    ]

(* ---- validation ------------------------------------------------------- *)

let ( let* ) = Result.bind

let need_int name = function
  | Some j -> (
      match Json.to_int_opt j with
      | Some n when n >= 0 -> Ok n
      | Some _ -> Error (name ^ " is negative")
      | None -> Error (name ^ " is not an int"))
  | None -> Error (name ^ " missing")

let int_obj name = function
  | Some (Json.Obj fields) ->
      let rec go = function
        | [] -> Ok ()
        | (_, Json.Int n) :: tl when n >= 0 -> go tl
        | (k, _) :: _ -> Error (name ^ "." ^ k ^ " is not a non-negative int")
      in
      go fields
  | _ -> Error (name ^ " is not an object")

let validate_entry j =
  match j with
  | Json.Obj _ ->
      let* _ =
        match Json.member "trace" j with
        | Some (Json.Str s) when s <> "" -> Ok s
        | _ -> Error "ledger trace id missing"
      in
      let* _ = need_int "frames" (Json.member "frames" j) in
      let* _ = need_int "retries" (Json.member "retries" j) in
      let* () = int_obj "msgs" (Json.member "msgs" j) in
      let* () = int_obj "bytes" (Json.member "bytes" j) in
      Ok ()
  | _ -> Error "ledger entry is not an object"

let validate j =
  match Json.member "traces" j with
  | Some (Json.Arr es) ->
      let* () =
        List.fold_left
          (fun acc e ->
            let* () = acc in
            validate_entry e)
          (Ok ()) es
      in
      let* r =
        match Json.member "rollup" j with
        | Some (Json.Obj _ as r) -> Ok r
        | _ -> Error "ledger rollup missing"
      in
      let* _ = need_int "rollup.msgs" (Json.member "msgs" r) in
      let* _ = need_int "rollup.collected" (Json.member "collected" r) in
      let* _ =
        need_int "rollup.msgs_per_cycle_milli"
          (Json.member "msgs_per_cycle_milli" r)
      in
      let* _ =
        need_int "rollup.bytes_per_cycle_milli"
          (Json.member "bytes_per_cycle_milli" r)
      in
      Ok ()
  | _ -> Error "ledger traces missing"
