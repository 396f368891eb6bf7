(* The deterministic sim-cost profiler and the cost ledger it renders:
   scope-tree semantics and the folded export, the fig2 end-to-end
   artifact (schema-valid dgc.profile/1 with the collector's ledger
   rows), the two determinism contracts — same seed => byte-identical
   documents, profiler off => event-identical schedule — ledger
   arithmetic over the collector's per-trace record (which is always
   kept; the profile only renders it), byte-identity pins of two
   profile documents, and the run artifact's embedded profile
   section. *)

open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts
open Dgc_core
open Dgc_workload
module Prof = Dgc_profile.Profile
module Ledg = Dgc_profile.Ledger
module Json = Dgc_telemetry.Json
module Run_artifact = Dgc_telemetry.Run_artifact

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let cfg_fig =
  {
    Config.default with
    Config.delta = 3;
    threshold2 = 6;
    threshold_bump = 4;
    trace_duration = Sim_time.zero;
  }

let run_fig2 ~profile () =
  let cfg = { cfg_fig with Config.profile } in
  let f = Scenario.fig2 ~cfg () in
  let sim = f.Scenario.f2_sim in
  Sim.start sim;
  Sim.run_rounds sim 8;
  sim

let rows sim = Back_trace.ledger_rows (Collector.back sim.Sim.col)

(* The wall-free dgc.profile/1 document of a profiled run. *)
let profile_doc ?name sim =
  Prof.to_json ~wall:false ?name ~ledger:(rows sim)
    (Option.get (Engine.profile sim.Sim.eng))

(* --- scopes and exports ------------------------------------------------ *)

let test_scopes_and_folded () =
  let p = Prof.create ~clock:(fun () -> 0.) () in
  Prof.with_scope p "deliver" (fun () ->
      Prof.work p "events" 1;
      Prof.with_scope p "update" (fun () -> Prof.work p "edges" 3));
  Prof.with_scope p "deliver" (fun () -> Prof.work p "events" 2);
  Alcotest.(check int) "depth back to zero" 0 (Prof.depth p);
  Alcotest.(check (list string))
    "units sorted" [ "edges"; "events" ] (Prof.units p);
  let folded = Prof.to_folded p in
  Alcotest.(check bool) "nested path weighted by self work" true
    (contains ~sub:"all;deliver;update 3" folded);
  Alcotest.(check bool) "repeat scopes merge into one node" true
    (contains ~sub:"all;deliver 3" folded);
  let only_edges = Prof.to_folded ~unit_:"edges" p in
  Alcotest.(check bool) "unit filter keeps the edge node" true
    (contains ~sub:"all;deliver;update 3" only_edges);
  Alcotest.(check bool) "unit filter drops event-only nodes" false
    (contains ~sub:"all;deliver 3" only_edges);
  match Prof.leave p with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "leave on an empty scope stack accepted"

(* --- fig2 end to end --------------------------------------------------- *)

let test_fig2_artifact () =
  let sim = run_fig2 ~profile:true () in
  let p =
    match Engine.profile sim.Sim.eng with
    | Some p -> p
    | None -> Alcotest.fail "Sim.make did not attach a profiler"
  in
  let doc = Prof.to_json ~name:"fig2" ~ledger:(rows sim) p in
  (match Prof.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "dgc.profile/1 invalid: %s" e);
  let folded = Prof.to_folded p in
  Alcotest.(check bool) "folded stacks non-empty" true (folded <> "\n");
  Alcotest.(check bool) "all root line present" true
    (String.starts_with ~prefix:"all " folded);
  Alcotest.(check bool) "deliver phase attributed" true
    (contains ~sub:"all;deliver" folded);
  let r = Ledg.rollup (rows sim) in
  Alcotest.(check bool) "fig2 cycle collected" true (r.Ledg.r_collected >= 1);
  Alcotest.(check bool) "per-cycle message budget positive" true
    (r.Ledg.r_msgs_per_cycle_milli > 0);
  match Ledg.validate (Ledg.to_json (rows sim)) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "ledger section invalid: %s" e

(* --- determinism ------------------------------------------------------- *)

let test_same_seed_fingerprint () =
  let fp () = Json.to_string (profile_doc (run_fig2 ~profile:true ())) in
  Alcotest.(check string) "byte-identical documents" (fp ()) (fp ())

let test_profiler_schedule_neutral () =
  let run profile =
    let sim = run_fig2 ~profile () in
    let eng = sim.Sim.eng in
    ( Sim_time.to_seconds (Engine.now eng),
      List.sort compare (Metrics.counters (Engine.metrics eng)) )
  in
  let clock_on, counters_on = run true in
  let clock_off, counters_off = run false in
  Alcotest.(check (float 0.)) "same simulated clock" clock_on clock_off;
  Alcotest.(check (list (pair string int)))
    "event-identical counters" counters_on counters_off

(* --- ledger arithmetic ------------------------------------------------- *)

(* A trace record as the collector keeps it, every counter zero. *)
let stat ~root ~started outcome =
  {
    Back_trace.ts_initiator = Site_id.of_int 0;
    ts_root = Oid.make ~site:(Site_id.of_int 0) ~index:root;
    ts_started = Sim_time.of_seconds started;
    ts_span = None;
    ts_msgs = 0;
    ts_call_msgs = 0;
    ts_call_bytes = 0;
    ts_reply_msgs = 0;
    ts_reply_bytes = 0;
    ts_report_msgs = 0;
    ts_report_bytes = 0;
    ts_calls = 0;
    ts_frames = 0;
    ts_retries = 0;
    ts_memo_hits = 0;
    ts_timeouts = 0;
    ts_reports = 0;
    ts_participants = Site_id.Set.empty;
    ts_outcome =
      Option.map (fun (v, at) -> (v, Sim_time.of_seconds at)) outcome;
  }

let test_ledger_arithmetic () =
  let t1 = Trace_id.make ~initiator:(Site_id.of_int 0) ~seq:2 in
  let t2 = Trace_id.make ~initiator:(Site_id.of_int 0) ~seq:10 in
  let e =
    Back_trace.ledger_row t1
      {
        (stat ~root:1 ~started:1.0 (Some (Verdict.Garbage, 2.5))) with
        Back_trace.ts_msgs = 3;
        ts_call_msgs = 2;
        ts_call_bytes = 64;
        ts_reply_msgs = 1;
        ts_reply_bytes = 16;
        ts_frames = 1;
        ts_calls = 1;
        ts_retries = 1;
        ts_memo_hits = 1;
        ts_timeouts = 1;
        ts_reports = 1;
      }
  in
  let e2 =
    Back_trace.ledger_row t2
      {
        (stat ~root:2 ~started:1.5 (Some (Verdict.Live, 2.0))) with
        Back_trace.ts_msgs = 1;
        ts_call_msgs = 1;
        ts_call_bytes = 10;
      }
  in
  Alcotest.(check (list (triple string int int)))
    "per-kind traffic, unsent kinds omitted"
    [ ("back_call", 2, 64); ("back_reply", 1, 16) ]
    e.Ledg.e_kinds;
  Alcotest.(check int) "message total" 3 (Ledg.msg_total e);
  Alcotest.(check int) "byte total" 80 (Ledg.byte_total e);
  Alcotest.(check (option string)) "outcome" (Some "garbage") e.Ledg.e_outcome;
  Alcotest.(check (option (float 1e-9))) "critical path in ms" (Some 1500.)
    (Ledg.critical_path_ms e);
  Alcotest.(check bool) "describe names the retry" true
    (contains ~sub:"retr" (Ledg.describe e));
  let unconcluded =
    Back_trace.ledger_row t2 (stat ~root:2 ~started:1.5 None)
  in
  Alcotest.(check (option (float 0.))) "no conclusion, no critical path" None
    (Ledg.critical_path_ms unconcluded);
  let r = Ledg.rollup [ e; e2 ] in
  Alcotest.(check int) "traces" 2 r.Ledg.r_traces;
  Alcotest.(check int) "collected" 1 r.Ledg.r_collected;
  Alcotest.(check int) "live" 1 r.Ledg.r_live;
  Alcotest.(check int) "msgs" 4 r.Ledg.r_msgs;
  Alcotest.(check int) "bytes" 90 r.Ledg.r_bytes;
  Alcotest.(check int) "msgs per collected cycle (milli)" 4000
    r.Ledg.r_msgs_per_cycle_milli;
  Alcotest.(check int) "bytes per collected cycle (milli)" 90_000
    r.Ledg.r_bytes_per_cycle_milli;
  match Ledg.validate (Ledg.to_json [ e; e2 ]) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "ledger json: %s" e

(* Eleven traces from one initiator: TS0.10 sorts before TS0.2 as a
   string, after it by [Trace_id.compare]. The ledger section is in
   string order, [Back_trace.stats] in trace-id order. *)
let test_ledger_row_order () =
  let f = Scenario.fig2 ~cfg:cfg_fig () in
  let sim = f.Scenario.f2_sim in
  let eng = sim.Sim.eng in
  Array.iter
    (fun s ->
      Tables.iter_inrefs s.Site.tables (fun ir ->
          List.iter
            (fun src ->
              Tables.set_source_dist s.Site.tables ir src.Ioref.src_site
                ~dist:100)
            ir.Ioref.ir_sources))
    (Engine.sites eng);
  Collector.force_local_trace_all sim.Sim.col;
  for _ = 0 to 10 do
    match
      Collector.start_back_trace sim.Sim.col (Oid.site f.Scenario.f2_a)
        f.Scenario.f2_c
    with
    | Some _ -> ()
    | None -> Alcotest.fail "trace not started"
  done;
  Sim.run_for sim (Sim_time.of_seconds 5.);
  let ids = List.map (fun r -> r.Ledg.e_trace) (rows sim) in
  Alcotest.(check (list string)) "rows in string order"
    (List.sort String.compare ids) ids;
  let by_id =
    List.map
      (fun (t, _) -> Format.asprintf "%a" Trace_id.pp t)
      (Back_trace.stats (Collector.back sim.Sim.col))
  in
  Alcotest.(check bool) "trace-id order differs" true (by_id <> ids);
  Alcotest.(check (list string)) "same traces" (List.sort String.compare by_id)
    ids

(* --- byte-identity pins ------------------------------------------------ *)

(* Digests of the wall-free dgc.profile/1 document, ledger included.
   Any change to the ledger's bytes — row order, field set, a counter
   attributed differently — moves these; a deliberate change updates
   the entry named in the failure message. *)
let digest_json j = Digest.to_hex (Digest.string (Json.to_string j))

let fig2_profile_doc () = profile_doc ~name:"fig2" (run_fig2 ~profile:true ())

(* Drops, a dup burst and a long partition on the ring workload, with
   the campaign's retry_limit = 2: calls are retried, duplicates hit
   the receiver memo, and calls across the partition time out. (The
   drop_retry and dup_burst corpus plans never time out.) *)
let fault_case =
  let open Dgc_chaos.Plan in
  {
    Dgc_chaos.Campaign.cs_name = "drop_dup_partition";
    cs_workload = "ring";
    cs_seed = 7;
    cs_horizon_ms = 120_000.;
    cs_plan =
      {
        events =
          [
            { at_ms = 1_000.; dur_ms = 14_000.; ev = Drop { p = 0.3 } };
            { at_ms = 3_000.; dur_ms = 30_000.; ev = Dup { p = 0.5 } };
            {
              at_ms = 6_000.;
              dur_ms = 90_000.;
              ev = Partition { groups = [ [ 0; 1 ]; [ 2; 3 ] ] };
            };
          ];
      };
  }

let fault_profile_doc () =
  let oc =
    Dgc_chaos.Campaign.run_case
      ~tweak:(fun c -> { c with Config.profile = true })
      fault_case
  in
  match
    Run_artifact.profile_section (Lazy.force oc.Dgc_chaos.Campaign.oc_run)
  with
  | Some doc -> doc
  | None -> Alcotest.fail "campaign artifact has no profile section"

(* A trace concludes once: the outcome counters agree with the number
   of traces whose record holds an outcome, under dup, drop and
   partition faults. *)
let test_one_conclusion () =
  let col = ref None in
  let oc =
    Dgc_chaos.Campaign.run_case
      ~probe:(fun pb -> col := Some pb.Dgc_chaos.Campaign.pb_col)
      fault_case
  in
  let counter k =
    Option.value ~default:0
      (List.assoc_opt k oc.Dgc_chaos.Campaign.oc_counters)
  in
  let concluded =
    List.length
      (List.filter
         (fun (_, st) -> st.Back_trace.ts_outcome <> None)
         (Back_trace.stats (Collector.back (Option.get !col))))
  in
  Alcotest.(check bool) "traces concluded" true (concluded > 0);
  Alcotest.(check int) "one outcome count per concluded trace" concluded
    (counter "back.outcome_garbage" + counter "back.outcome_live")

let ledger_total field doc =
  match Option.bind (Json.member "ledger" doc) (Json.member "traces") with
  | Some (Json.Arr rows) ->
      List.fold_left
        (fun a row ->
          a
          + Option.value ~default:0
              (Option.bind (Json.member field row) Json.to_int_opt))
        0 rows
  | _ -> Alcotest.fail "profile document has no ledger rows"

let test_profile_pins () =
  Alcotest.(check string) "fig2 profile digest" "e22c631da5eaf06d5500a5cac553c9be"
    (digest_json (fig2_profile_doc ()));
  let doc = fault_profile_doc () in
  List.iter
    (fun f ->
      Alcotest.(check bool) ("fault case ledger has " ^ f) true
        (ledger_total f doc > 0))
    [ "retries"; "timeouts"; "memo_hits" ];
  Alcotest.(check string) "fault case profile digest" "3d58c590a9752901cd40fa3840af19d0"
    (digest_json doc)

(* --- run artifact embed ------------------------------------------------ *)

let test_artifact_profile_section () =
  let p = Prof.create ~clock:(fun () -> 0.) () in
  Prof.with_scope p "deliver" (fun () -> Prof.work p "events" 5);
  let m = Metrics.create () in
  Metrics.incr m "msg.total";
  let art =
    Run_artifact.make ~name:"unit" ~sim_seconds:1.
      ~profile:(Prof.to_json ~wall:false p)
      m
  in
  (match Run_artifact.validate art with
  | Ok () -> ()
  | Error e -> Alcotest.failf "artifact with profile: %s" e);
  (match Run_artifact.profile_section art with
  | Some sec -> (
      match Prof.validate sec with
      | Ok () -> ()
      | Error e -> Alcotest.failf "embedded profile: %s" e)
  | None -> Alcotest.fail "profile section missing");
  (* A profile section without the dgc.profile/1 tag must be rejected. *)
  let bad =
    Run_artifact.make ~name:"unit" ~sim_seconds:1.
      ~profile:(Json.Obj [ ("schema", Json.Str "bogus") ])
      m
  in
  match Run_artifact.validate bad with
  | Ok () -> Alcotest.fail "mistagged profile section accepted"
  | Error _ -> ()

let () =
  Alcotest.run "profile"
    [
      ( "scopes",
        [
          Alcotest.test_case "scope tree and folded export" `Quick
            test_scopes_and_folded;
        ] );
      ( "fig2",
        [
          Alcotest.test_case "schema-valid artifact and ledger" `Quick
            test_fig2_artifact;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed, same work fingerprint" `Quick
            test_same_seed_fingerprint;
          Alcotest.test_case "profiler is schedule-neutral" `Quick
            test_profiler_schedule_neutral;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "arithmetic and rollup" `Quick
            test_ledger_arithmetic;
          Alcotest.test_case "rows in trace-id string order" `Quick
            test_ledger_row_order;
          Alcotest.test_case "one conclusion per trace" `Quick
            test_one_conclusion;
        ] );
      ( "pins",
        [
          Alcotest.test_case "profile documents byte-identical" `Quick
            test_profile_pins;
        ] );
      ( "artifact",
        [
          Alcotest.test_case "embedded profile section" `Quick
            test_artifact_profile_section;
        ] );
    ]
