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

(* ---- validation ------------------------------------------------------ *)

let ( let* ) = Result.bind

let validate doc =
  let* () = Json.expect_schema schema doc in
  let* _ = Json.str_field "name" doc in
  let* _ = Json.int_field "seed" doc in
  let* mode = Json.str_field "mode" doc in
  let* () =
    if List.mem mode [ "guided"; "random" ] then Ok ()
    else Error (Printf.sprintf "unknown mode %S" mode)
  in
  let* execs = Json.int_field "execs" doc in
  let* cov = Json.field "coverage" doc in
  let* _ = Json.int_field "size" cov in
  let* hits = Json.int_field "hits" cov in
  let* _ = Json.int_field "total" cov in
  let* curve = Json.list_field "curve" cov in
  let* curve =
    Json.list_map
      (fun j ->
        Option.to_result ~none:"coverage curve: non-int entry"
          (Json.to_int_opt j))
      curve
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
          if h < prev then Error "coverage curve not monotone" else mono h tl
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
  let* corpus = Json.field "corpus" doc in
  let* size = Json.int_field "size" corpus in
  let* plans = Json.int_field "plans" corpus in
  let* schedules = Json.int_field "schedules" corpus in
  let* _ = Json.int_field "promoted" corpus in
  let* () =
    if size <> plans + schedules then Error "corpus size != plans + schedules"
    else Ok ()
  in
  let* ops = Json.list_field "ops" doc in
  let* _ =
    Json.list_map
      (fun o ->
        let* _ = Json.str_field "name" o in
        let* _ = Json.int_field "tried" o in
        let* _ = Json.int_field "novel" o in
        Json.int_field "failures" o)
      ops
  in
  let* fs = Json.list_field "failures" doc in
  let* _ =
    Json.list_map
      (fun f ->
        let* _ = Json.str_field "kind" f in
        let* _ = Json.str_field "input" f in
        let* _ = Json.int_field "exec" f in
        let* _ = Json.str_field "detail" f in
        Json.int_field "signature" f)
      fs
  in
  match Json.member "baseline" doc with
  | None -> Ok ()
  | Some b ->
      let* _ = Json.int_field "execs" b in
      let* _ = Json.int_field "hits" b in
      Ok ()
