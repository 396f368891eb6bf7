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

let non_negative what n =
  if n >= 0 then Ok () else Error (what ^ " is negative")

(* A per-kind count object: every value a non-negative int. *)
let counts what fields =
  Json.list_map
    (fun (k, v) ->
      match Json.to_int_opt v with
      | Some n -> non_negative (what ^ "." ^ k) n
      | None -> Error (what ^ "." ^ k ^ " is not an int"))
    fields

let validate_entry j =
  let* trace = Json.str_field "trace" j in
  let* () = if trace = "" then Error "ledger trace id is empty" else Ok () in
  let* frames = Json.int_field "frames" j in
  let* () = non_negative "frames" frames in
  let* retries = Json.int_field "retries" j in
  let* () = non_negative "retries" retries in
  let* msgs = Json.obj_field "msgs" j in
  let* _ = counts "msgs" msgs in
  let* bytes = Json.obj_field "bytes" j in
  let* _ = counts "bytes" bytes in
  Ok ()

let validate j =
  let* entries = Json.list_field "traces" j in
  let* _ = Json.list_map validate_entry entries in
  let* r = Json.field "rollup" j in
  let* _ =
    Json.list_map
      (fun k ->
        let* n = Json.int_field k r in
        non_negative ("rollup." ^ k) n)
      [ "msgs"; "collected"; "msgs_per_cycle_milli"; "bytes_per_cycle_milli" ]
  in
  Ok ()
