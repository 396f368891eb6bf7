module Json = Dgc_telemetry.Json

type op_stat = {
  op_name : string;
  op_tried : int;
  op_novel : int;
  op_failed : int;
}

type found = {
  fd_kind : string;
  fd_input : string;
  fd_exec : int;
  fd_detail : string;
  fd_signature : int;
  fd_promoted : string option;
}

type t = {
  r_name : string;
  r_seed : int;
  r_mode : string;
  r_execs : int;
  r_curve : int list;
  r_map : Coverage.t;
  r_pool_size : int;
  r_pool_plans : int;
  r_pool_schedules : int;
  r_promoted : int;
  r_ops : op_stat list;
  r_found : found list;
  r_baseline : (int * int) option;
}

let schema = "dgc.fuzz/1"

let to_json t =
  let coverage =
    match Coverage.to_json t.r_map with
    | Json.Obj fields ->
        Json.Obj
          (fields
          @ [ ("curve", Json.Arr (List.map (fun h -> Json.Int h) t.r_curve)) ]
          )
    | j -> j
  in
  Json.Obj
    ([
       ("schema", Json.Str schema);
       ("name", Json.Str t.r_name);
       ("seed", Json.Int t.r_seed);
       ("mode", Json.Str t.r_mode);
       ("execs", Json.Int t.r_execs);
       ("coverage", coverage);
       ( "corpus",
         Json.Obj
           [
             ("size", Json.Int t.r_pool_size);
             ("plans", Json.Int t.r_pool_plans);
             ("schedules", Json.Int t.r_pool_schedules);
             ("promoted", Json.Int t.r_promoted);
           ] );
       ( "ops",
         Json.Arr
           (List.map
              (fun o ->
                Json.Obj
                  [
                    ("name", Json.Str o.op_name);
                    ("tried", Json.Int o.op_tried);
                    ("novel", Json.Int o.op_novel);
                    ("failures", Json.Int o.op_failed);
                  ])
              t.r_ops) );
       ( "failures",
         Json.Arr
           (List.map
              (fun f ->
                Json.Obj
                  ([
                     ("kind", Json.Str f.fd_kind);
                     ("input", Json.Str f.fd_input);
                     ("exec", Json.Int f.fd_exec);
                     ("detail", Json.Str f.fd_detail);
                     ("signature", Json.Int f.fd_signature);
                   ]
                  @
                  match f.fd_promoted with
                  | Some p -> [ ("promoted", Json.Str p) ]
                  | None -> []))
              t.r_found) );
     ]
    @
    match t.r_baseline with
    | Some (execs, hits) ->
        [
          ( "baseline",
            Json.Obj [ ("execs", Json.Int execs); ("hits", Json.Int hits) ] );
        ]
    | None -> [])

let save ~path t =
  let oc = open_out path in
  output_string oc (Json.to_string (to_json t));
  output_char oc '\n';
  close_out oc

(* ---- validation ------------------------------------------------------ *)

let ( let* ) = Result.bind

let need_int doc name =
  match Option.bind (Json.member name doc) Json.to_int_opt with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "missing or non-int field %S" name)

let need_str doc name =
  match Option.bind (Json.member name doc) Json.to_str_opt with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "missing or non-string field %S" name)

let need_obj doc name =
  match Json.member name doc with
  | Some j -> Ok j
  | None -> Error (Printf.sprintf "missing section %S" name)

let validate doc =
  let* s = need_str doc "schema" in
  if not (String.equal s schema) then
    Error (Printf.sprintf "expected schema %S, got %S" schema s)
  else
    let* _ = need_str doc "name" in
    let* _ = need_int doc "seed" in
    let* mode = need_str doc "mode" in
    let* () =
      if List.mem mode [ "guided"; "random" ] then Ok ()
      else Error (Printf.sprintf "unknown mode %S" mode)
    in
    let* execs = need_int doc "execs" in
    let* cov = need_obj doc "coverage" in
    let* _ = need_int cov "size" in
    let* hits = need_int cov "hits" in
    let* _ = need_int cov "total" in
    let* curve =
      match Option.bind (Json.member "curve" cov) Json.to_list_opt with
      | None -> Error "coverage: missing \"curve\" array"
      | Some l ->
          List.fold_left
            (fun acc j ->
              let* acc = acc in
              match Json.to_int_opt j with
              | Some i -> Ok (i :: acc)
              | None -> Error "coverage curve: non-int entry")
            (Ok []) l
          |> Result.map List.rev
    in
    let* () =
      if List.length curve <> execs then
        Error
          (Printf.sprintf "coverage curve has %d points for %d execs"
             (List.length curve) execs)
      else Ok ()
    in
    let* () =
      let rec mono prev = function
        | [] -> Ok ()
        | h :: tl ->
            if h < prev then Error "coverage curve not monotone"
            else mono h tl
      in
      mono 0 curve
    in
    let* () =
      match List.rev curve with
      | last :: _ when last <> hits ->
          Error
            (Printf.sprintf "curve ends at %d but bitmap reports %d hits" last
               hits)
      | _ -> Ok ()
    in
    let* corpus = need_obj doc "corpus" in
    let* size = need_int corpus "size" in
    let* plans = need_int corpus "plans" in
    let* schedules = need_int corpus "schedules" in
    let* _ = need_int corpus "promoted" in
    let* () =
      if size <> plans + schedules then
        Error "corpus size != plans + schedules"
      else Ok ()
    in
    let* () =
      match Option.bind (Json.member "ops" doc) Json.to_list_opt with
      | None -> Error "missing \"ops\" array"
      | Some ops ->
          List.fold_left
            (fun acc o ->
              let* () = acc in
              let* _ = need_str o "name" in
              let* _ = need_int o "tried" in
              let* _ = need_int o "novel" in
              let* _ = need_int o "failures" in
              Ok ())
            (Ok ()) ops
    in
    let* () =
      match Option.bind (Json.member "failures" doc) Json.to_list_opt with
      | None -> Error "missing \"failures\" array"
      | Some fs ->
          List.fold_left
            (fun acc f ->
              let* () = acc in
              let* _ = need_str f "kind" in
              let* _ = need_str f "input" in
              let* _ = need_int f "exec" in
              let* _ = need_str f "detail" in
              let* _ = need_int f "signature" in
              Ok ())
            (Ok ()) fs
    in
    match Json.member "baseline" doc with
    | None -> Ok ()
    | Some b ->
        let* _ = need_int b "execs" in
        let* _ = need_int b "hits" in
        Ok ()
