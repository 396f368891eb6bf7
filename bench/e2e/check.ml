(* Test helper for the end-to-end benchmark's runtest rules.

     check.exe exact OUT...
       print the deterministic lines of benchmark outputs (header,
       fingerprint, exact metrics) for pinning against an expected file;
     check.exe names BENCHMARK.json FILE...
       check that every output ([*.out]) ends in a correct result whose
       metric names and units are exactly BENCHMARK.json's end_to_end
       (trace 0) or per_layer (trace 1) list, and that every trace file
       ([*.trace.json]) is Chrome trace-event JSON; other files are
       skipped. *)

module Json = Dgc_telemetry.Json

let fail fmt = Format.kasprintf (fun s -> prerr_endline s; exit 1) fmt
let lines path = In_channel.with_open_bin path In_channel.input_all |> String.split_on_char '\n'

let parse path text =
  match Json.parse text with Ok j -> j | Error e -> fail "%s: not JSON: %s" path e

let exact paths =
  List.iter
    (fun path ->
      List.iter
        (fun l ->
          if
            List.exists
              (fun prefix -> String.starts_with ~prefix l)
              [ "# e2e "; "fingerprint "; "exact " ]
          then print_endline l)
        (lines path))
    paths

let declared bench key =
  match Json.member key bench with
  | Some (Json.Arr ms) ->
      List.map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m) with
          | Some (Json.Str n), Some (Json.Str u) -> (n, u)
          | _ -> fail "BENCHMARK.json: malformed %s entry" key)
        ms
  | _ -> fail "BENCHMARK.json: no %s list" key

let check_result bench path =
  let ls = List.filter (fun l -> l <> "") (lines path) in
  let traced =
    match ls with
    | header :: _ when String.starts_with ~prefix:"# e2e " header ->
        List.mem "trace=1" (String.split_on_char ' ' header)
    | _ -> fail "%s: no benchmark header" path
  in
  let result = parse path (List.nth ls (List.length ls - 1)) in
  if Json.member "correct" result <> Some (Json.Bool true) then fail "%s: result not correct" path;
  (match Option.bind (Json.member "attempted" result) Json.to_int_opt with
  | Some n when n >= 1 -> ()
  | _ -> fail "%s: attempted missing or < 1" path);
  let want = declared bench (if traced then "per_layer" else "end_to_end") in
  let got =
    match Json.member "metrics" result with
    | Some (Json.Obj ms) ->
        List.map
          (fun (n, m) ->
            match Json.member "unit" m with
            | Some (Json.Str u) -> (n, u)
            | _ -> fail "%s: metric %s has no unit" path n)
          ms
    | _ -> fail "%s: no metrics object" path
  in
  List.iter
    (fun (n, u) ->
      match List.assoc_opt n got with
      | None -> fail "%s: declared metric %s not printed" path n
      | Some u' when u' <> u -> fail "%s: metric %s printed in %s, declared in %s" path n u' u
      | Some _ -> ())
    want;
  List.iter
    (fun (n, _) -> if not (List.mem_assoc n want) then fail "%s: metric %s not declared" path n)
    got

let check_trace path =
  let j = parse path (In_channel.with_open_bin path In_channel.input_all) in
  match Json.member "traceEvents" j with
  | Some (Json.Arr (_ :: _)) -> ()
  | _ -> fail "%s: no traceEvents" path

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "exact" :: paths -> exact paths
  | "names" :: bench :: paths ->
      let bench = parse bench (In_channel.with_open_bin bench In_channel.input_all) in
      List.iter
        (fun p ->
          if Filename.check_suffix p ".trace.json" then check_trace p
          else if Filename.check_suffix p ".out" then check_result bench p)
        paths
  | _ -> fail "usage: check.exe exact OUT... | check.exe names BENCHMARK.json OUT..."
