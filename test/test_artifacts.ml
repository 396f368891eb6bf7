(* Every dgc.* decoder against one table of documents: each committed
   artifact (the corpus, the BENCH_* baselines, FUZZ_smoke.json) and a
   freshly built document of every shape must be accepted; a document
   with a wrong "schema" tag must be rejected; and removing one
   top-level key must be rejected exactly when the decoder requires
   that key. The table pins what each decoder accepts, so a rewrite of
   the decoding code cannot widen or narrow it unnoticed. *)

open Dgc_simcore
open Dgc_rts
open Dgc_core
open Dgc_workload
module Tel = Dgc_telemetry
module Json = Tel.Json
module Prof = Dgc_profile.Profile
module Ledg = Dgc_profile.Ledger
module Plan = Dgc_chaos.Plan
module Input = Dgc_fuzz.Input
module Fuzzer = Dgc_fuzz.Fuzzer
module Freport = Dgc_fuzz.Report
module Obs = Dgc_observe

let ok_unit = function Ok _ -> Ok () | Error e -> Error e

(* kind -> (decoders, required top-level keys) *)
let kinds =
  [
    ( "run",
      ( [ Prof.validate_run ],
        [ "schema"; "name"; "sim_seconds"; "counters"; "histograms" ] ) );
    ("profile", ([ Prof.validate ], [ "schema"; "name"; "units"; "nodes" ]));
    ( "flight",
      ( [ (fun j -> ok_unit (Tel.Flight.of_json j)) ],
        [ "schema"; "reason"; "at"; "capacity"; "strings"; "rings" ] ) );
    ("series", ([ Tel.Series.validate ], [ "window"; "series" ]));
    ("ledger", ([ Ledg.validate ], [ "traces"; "rollup" ]));
    ( "span",
      ( [ (fun j -> ok_unit (Tel.Tracer.span_of_json j)) ],
        [ "id"; "trace"; "name"; "site"; "start" ] ) );
    ( "plan",
      ( [
          (fun j -> ok_unit (Plan.of_json j));
          (fun j -> ok_unit (Input.of_json j));
        ],
        [ "schema"; "events" ] ) );
    ( "schedule",
      ( [ (fun j -> ok_unit (Input.of_json j)) ],
        [ "schema"; "sut"; "schedule" ] ) );
    ( "chaos",
      ( [ Dgc_chaos.Campaign.validate ],
        [ "schema"; "case"; "plan"; "outcome"; "journal"; "run" ] ) );
    ( "fuzz",
      ( [ Freport.validate ],
        [
          "schema";
          "name";
          "seed";
          "mode";
          "execs";
          "coverage";
          "corpus";
          "ops";
          "failures";
        ] ) );
  ]

let kind_of_schema = function
  | "dgc.run/1" -> "run"
  | "dgc.profile/1" -> "profile"
  | "dgc.flight/1" -> "flight"
  | "dgc.plan/1" -> "plan"
  | "dgc.schedule/1" -> "schedule"
  | "dgc.chaos/1" -> "chaos"
  | "dgc.fuzz/1" -> "fuzz"
  | s -> Alcotest.failf "no decoder for schema %S" s

let decoders kind = fst (List.assoc kind kinds)
let required kind = snd (List.assoc kind kinds)

let accepts kind j = List.for_all (fun d -> Result.is_ok (d j)) (decoders kind)

let rejects kind j =
  List.for_all (fun d -> Result.is_error (d j)) (decoders kind)

let check_accepted what kind j =
  List.iter
    (fun d ->
      match d j with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s (%s) rejected: %s" what kind e)
    (decoders kind)

let fields = function
  | Json.Obj fs -> fs
  | _ -> Alcotest.fail "document is not an object"

(* Removing each top-level key: rejected iff required; a wrong schema
   tag is always rejected. *)
let check_shape what kind j =
  check_accepted what kind j;
  let fs = fields j in
  List.iter
    (fun (k, _) ->
      let without = Json.Obj (List.remove_assoc k fs) in
      if List.mem k (required kind) then begin
        if not (rejects kind without) then
          Alcotest.failf "%s (%s): accepted without required key %S" what kind
            k
      end
      else if not (accepts kind without) then
        Alcotest.failf "%s (%s): rejected without optional key %S" what kind k)
    fs;
  List.iter
    (fun k ->
      if not (List.mem_assoc k fs) then
        Alcotest.failf "%s (%s): fixture lacks required key %S" what kind k)
    (required kind);
  if List.mem_assoc "schema" fs then
    let bogus =
      Json.Obj
        (List.map
           (fun (k, v) ->
             if k = "schema" then (k, Json.Str "dgc.bogus/1") else (k, v))
           fs)
    in
    if not (rejects kind bogus) then
      Alcotest.failf "%s (%s): accepted a wrong schema tag" what kind

(* --- committed artifacts ----------------------------------------------- *)

(* cwd is the test's build directory under `dune runtest` but the
   workspace root under `dune exec`. *)
let root () =
  match
    List.find_opt Sys.file_exists [ "../FUZZ_smoke.json"; "FUZZ_smoke.json" ]
  with
  | Some f -> Filename.dirname f
  | None -> Alcotest.fail "repository root not found"

let read path =
  match Json.read_file ~path with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s: %s" path e

let committed () =
  let root = root () in
  let corpus = Filename.concat (Filename.concat root "test") "corpus" in
  (Sys.readdir corpus |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort String.compare
  |> List.map (Filename.concat corpus))
  @ List.map (Filename.concat root)
      [ "BENCH_backtrace.json"; "BENCH_scale.json"; "FUZZ_smoke.json" ]

let test_committed () =
  let files = committed () in
  Alcotest.(check bool) "found the committed artifacts" true
    (List.length files >= 10);
  List.iter
    (fun path ->
      let j = read path in
      match Option.bind (Json.member "schema" j) Json.to_str_opt with
      | None -> Alcotest.failf "%s: no schema tag" path
      | Some s -> check_accepted path (kind_of_schema s) j)
    files

(* --- fresh documents --------------------------------------------------- *)

let cfg =
  {
    Config.default with
    Config.delta = 3;
    threshold2 = 6;
    threshold_bump = 4;
    trace_duration = Sim_time.zero;
    profile = true;
  }

let fresh_run () =
  let f = Scenario.fig2 ~cfg () in
  let sim = f.Scenario.f2_sim in
  let tracer = Tel.Tracer.create () in
  Engine.attach_tracer sim.Sim.eng tracer;
  Sim.start sim;
  Sim.run_rounds sim 8;
  (sim, tracer)

let fresh_docs () =
  let sim, tracer = fresh_run () in
  let eng = sim.Sim.eng in
  let ledger = Back_trace.ledger_rows (Collector.back sim.Sim.col) in
  let profile =
    Prof.to_json ~name:"fresh" ~ledger (Option.get (Engine.profile eng))
  in
  let audit = Obs.Audit.to_json (Obs.Audit.run sim.Sim.col) in
  let run =
    Tel.Run_artifact.make ~name:"fresh" ~sim_seconds:1.
      ~extra:[ ("note", Json.Str "x") ]
      ~audit ~series:(Engine.series eng) ~profile (Engine.metrics eng)
  in
  let span =
    match Tel.Tracer.spans tracer with
    | sp :: _ -> Tel.Tracer.span_to_json sp
    | [] -> Alcotest.fail "fig2 recorded no span"
  in
  let flight =
    match Engine.dump_flight eng ~reason:"fresh" with
    | Some j -> j
    | None -> Alcotest.fail "no flight recorder"
  in
  let plan =
    Input.to_json
      ~meta:
        {
          Input.m_expect = Some "leak";
          m_tweaks = [ "sanitize" ];
          m_comment = Some "fresh";
        }
      (Input.Plan_input
         {
           Input.pi_workload = "fig2";
           pi_seed = 3;
           pi_horizon_ms = 15_000.;
           pi_plan =
             Plan.random
               ~rng:(Dgc_prelude.Rng.create ~seed:5)
               ~sites:2 ~horizon_ms:15_000. ~events:5;
         })
  in
  let schedule =
    Input.to_json
      ~meta:{ Input.no_meta with Input.m_expect = Some "race" }
      (Input.Schedule_input
         {
           Input.si_sut = "san-race-broken";
           si_max_steps = 64;
           si_schedule = [ (0, 1) ];
         })
  in
  let chaos =
    Dgc_chaos.Campaign.artifact
      (Dgc_chaos.Campaign.run_case
         {
           Dgc_chaos.Campaign.cs_name = "fresh";
           cs_workload = "fig1";
           cs_seed = 2;
           cs_horizon_ms = 10_000.;
           cs_plan =
             Plan.random
               ~rng:(Dgc_prelude.Rng.create ~seed:7)
               ~sites:3 ~horizon_ms:10_000. ~events:2;
         })
  in
  let fuzz =
    Freport.to_json
      (Fuzzer.with_baseline
         {
           Fuzzer.default_opts with
           Fuzzer.o_execs = 2;
           o_workloads = [ "fig2" ];
           o_horizon_ms = 10_000.;
           o_events = 1;
         })
  in
  [
    ("run", run);
    ("profile", profile);
    ("flight", flight);
    ("series", Tel.Series.to_json (Engine.series eng));
    ("ledger", Ledg.to_json ledger);
    ("span", span);
    ("plan", plan);
    ("schedule", schedule);
    ("chaos", chaos);
    ("fuzz", fuzz);
  ]

let test_fresh () =
  List.iter (fun (kind, j) -> check_shape ("fresh " ^ kind) kind j)
    (fresh_docs ())

let () =
  Alcotest.run "artifacts"
    [
      ( "decoders",
        [
          Alcotest.test_case "every committed artifact decodes" `Quick
            test_committed;
          Alcotest.test_case "fresh documents: keys and schema tags" `Quick
            test_fresh;
        ] );
    ]
