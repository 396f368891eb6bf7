(* @schemas: every committed JSON artifact (test/corpus/*.json, the
   BENCH_* baselines, FUZZ_smoke.json) must decode with the reader for
   its declared "schema" tag, so a corpus file or baseline can never
   drift from the code that reads it.

     schema_check.exe FILE.json ...

   The table below maps each tag to the library decoder that owns it;
   corpus files (dgc.plan/1 and dgc.schedule/1) go through
   Dgc_fuzz.Input.of_json, the reader the corpus replay and the fuzzer
   load them with. Exit status 1 when any file fails. *)

module Json = Dgc_telemetry.Json
module Flight = Dgc_telemetry.Flight
module Input = Dgc_fuzz.Input

let decoders =
  [
    ("dgc.run/1", Dgc_profile.Profile.validate_run);
    ("dgc.profile/1", Dgc_profile.Profile.validate);
    ("dgc.plan/1", fun j -> Result.map ignore (Input.of_json j));
    ("dgc.schedule/1", fun j -> Result.map ignore (Input.of_json j));
    ("dgc.flight/1", fun j -> Result.map ignore (Flight.of_json j));
    ("dgc.chaos/1", Dgc_chaos.Campaign.validate);
    ("dgc.fuzz/1", Dgc_fuzz.Report.validate);
  ]

let check path =
  let result =
    Result.bind (Json.read_file ~path) (fun doc ->
        match Json.schema doc with
        | None -> Error "no \"schema\" field"
        | Some tag -> (
            match List.assoc_opt tag decoders with
            | None -> Error (Printf.sprintf "unknown schema %S" tag)
            | Some decode ->
                Result.map_error (Printf.sprintf "%s: %s" tag) (decode doc)))
  in
  match result with
  | Ok () -> true
  | Error e ->
      Printf.eprintf "%s: %s\n" path e;
      false

let () =
  let paths = List.tl (Array.to_list Sys.argv) in
  if paths = [] then begin
    prerr_endline "usage: schema_check.exe FILE.json ...";
    exit 2
  end;
  let ok = List.for_all Fun.id (List.map check paths) in
  if not ok then exit 1;
  Printf.printf "schemas: %d artifacts ok\n" (List.length paths)
