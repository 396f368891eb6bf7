open Dgc_simcore

let schema = "dgc.run/1"

let hist_json (st : Metrics.hist_stats) =
  Json.Obj
    [
      ("n", Json.Int st.Metrics.n);
      ("sum", Json.Float st.Metrics.sum);
      ("min", Json.Float st.Metrics.min);
      ("max", Json.Float st.Metrics.max);
      ("p50", Json.Float st.Metrics.p50);
      ("p95", Json.Float st.Metrics.p95);
      ("p99", Json.Float st.Metrics.p99);
    ]

let make ~name ~sim_seconds ?(extra = []) ?audit ?series ?profile metrics =
  Json.Obj
    ([
       ("schema", Json.Str schema);
       ("name", Json.Str name);
       ("sim_seconds", Json.Float sim_seconds);
       ( "counters",
         Json.Obj
           (List.map (fun (k, v) -> (k, Json.Int v)) (Metrics.counters metrics))
       );
       ( "histograms",
         Json.Obj
           (List.map (fun (k, st) -> (k, hist_json st)) (Metrics.hists metrics))
       );
       ("extra", Json.Obj extra);
     ]
    @ (match series with Some s -> [ ("series", Series.to_json s) ] | None -> [])
    @ (match profile with Some p -> [ ("profile", p) ] | None -> [])
    @ match audit with Some a -> [ ("audit", a) ] | None -> [])

let audit_section j = Json.member "audit" j
let series_section j = Json.member "series" j
let profile_section j = Json.member "profile" j

let ( let* ) = Result.bind

let in_section name r = Result.map_error (fun e -> name ^ " section: " ^ e) r

(* Sections written by libraries above this one carry their own tag;
   their full decoders live there ([Dgc_profile.Profile.validate] for
   "profile"), so only the tag is checked here. *)
let tagged_section name tag j =
  match Json.member name j with
  | None -> Ok ()
  | Some sec -> in_section name (Json.expect_schema tag sec)

let validate ?(require_hists = []) ?(require_counter_prefixes = []) j =
  let* () = Json.expect_schema schema j in
  let* _ = Json.str_field "name" j in
  let* _ = Json.float_field "sim_seconds" j in
  let* counters = Json.obj_field "counters" j in
  let* _ =
    Json.list_map
      (fun (k, v) ->
        Option.to_result
          ~none:(Printf.sprintf "counter %S is not an integer" k)
          (Json.to_int_opt v))
      counters
  in
  let* hists = Json.obj_field "histograms" j in
  let* _ =
    Json.list_map
      (fun (k, h) ->
        Json.list_map
          (fun f ->
            Result.map_error
              (Printf.sprintf "histogram %S: %s" k)
              (Json.float_field f h))
          [ "n"; "sum"; "min"; "max"; "p50"; "p95"; "p99" ])
      hists
  in
  let* _ =
    Json.list_map
      (fun name ->
        if List.mem_assoc name hists then Ok ()
        else Error (Printf.sprintf "required histogram %S missing" name))
      require_hists
  in
  let* () = tagged_section "audit" "dgc.audit/1" j in
  let* () =
    match Json.member "series" j with
    | None -> Ok ()
    | Some s -> in_section "series" (Series.validate s)
  in
  let* () = tagged_section "profile" "dgc.profile/1" j in
  let* _ =
    Json.list_map
      (fun prefix ->
        if List.exists (fun (k, _) -> String.starts_with ~prefix k) counters
        then Ok ()
        else Error (Printf.sprintf "no counter under prefix %S" prefix))
      require_counter_prefixes
  in
  Ok ()
