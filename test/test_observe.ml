(* The observe library: snapshots and diffs, the watchdog, the
   why-not-collected auditor, plus the telemetry fix that feeds them
   (dropped span finishes). *)

open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts
open Dgc_core
open Dgc_workload
module Tel = Dgc_telemetry
module Obs = Dgc_observe

let s k = Site_id.of_int k

let cfg_fast =
  {
    Config.default with
    Config.delta = 3;
    threshold2 = 6;
    threshold_bump = 4;
    trace_interval = Sim_time.of_seconds 10.;
    trace_jitter = Sim_time.of_seconds 1.;
    trace_duration = Sim_time.zero;
    latency = Latency.Fixed (Sim_time.of_millis 5.);
  }

(* --- tracer: silent span loss is now counted ---------------------------- *)

let test_tracer_dropped_finishes () =
  let t = Tel.Tracer.create () in
  let sp =
    Tel.Tracer.start_span t ~trace:"T0.0" ~name:"back_trace" ~site:0 ~at:0. []
  in
  Alcotest.(check int) "open" 1 (List.length (Tel.Tracer.open_spans t));
  Tel.Tracer.finish_span t sp ~at:1. [];
  Alcotest.(check int) "none open" 0 (List.length (Tel.Tracer.open_spans t));
  Alcotest.(check int) "nothing dropped yet" 0 (Tel.Tracer.dropped_finishes t);
  (* double finish and unknown id both count *)
  Tel.Tracer.finish_span t sp ~at:2. [];
  Tel.Tracer.finish_span t 9999 ~at:2. [];
  Alcotest.(check int) "dropped counted" 2 (Tel.Tracer.dropped_finishes t);
  (* and both surface in the chrome export's otherData *)
  let j = Tel.Tracer.to_chrome t in
  match Option.bind (Tel.Json.member "otherData" j) (Tel.Json.member "dropped_finishes") with
  | Some (Tel.Json.Int 2) -> ()
  | _ -> Alcotest.fail "dropped_finishes missing from chrome otherData"

(* --- snapshots ---------------------------------------------------------- *)

let test_snapshot_and_diff () =
  let f = Scenario.fig1 ~cfg:cfg_fast () in
  let sim = f.Scenario.f1_sim in
  Scenario.settle sim ~rounds:2;
  let before = Obs.Snapshot.take sim.Sim.col in
  Alcotest.(check int) "three sites" 3 (List.length before.Obs.Snapshot.sites);
  let q =
    List.find
      (fun sv -> Site_id.equal sv.Obs.Snapshot.sv_site (Oid.site f.Scenario.f1_f))
      before.Obs.Snapshot.sites
  in
  Alcotest.(check bool) "Q has inrefs" true (q.Obs.Snapshot.sv_inrefs <> []);
  (match Obs.Snapshot.to_json before with
  | Tel.Json.Obj fields ->
      Alcotest.(check bool) "schema tagged" true
        (List.assoc_opt "schema" fields = Some (Tel.Json.Str "dgc.snapshot/1"))
  | _ -> Alcotest.fail "snapshot json not an object");
  Alcotest.(check int) "no self-diff" 0
    (List.length (Obs.Snapshot.diff before before));
  Sim.start sim;
  ignore (Sim.collect_all sim ~max_rounds:30 ());
  let after = Obs.Snapshot.take sim.Sim.col in
  let changes = Obs.Snapshot.diff before after in
  Alcotest.(check bool) "collection changed the state" true (changes <> []);
  (* the f-g cycle died: object counts changed at Q and R *)
  Alcotest.(check bool) "object counts among the changes" true
    (List.exists (fun c -> c.Obs.Snapshot.ch_what = "objects") changes)

(* --- watchdog ----------------------------------------------------------- *)

(* A slack §4.7 timeout (100s) plus a crash mid-trace: the reply can
   never arrive and the timeout is too far out to save the trace, so
   it sits outcome-less. A watchdog with a deadline below the timeout
   (stuck_factor 0.3 -> 30s) must flag it long before the timeout
   would. *)
let test_watchdog_flags_stuck_trace () =
  let cfg = { cfg_fast with Config.back_call_timeout = Sim_time.of_seconds 100. } in
  let sim = Sim.make ~cfg () in
  let eng = sim.Sim.eng in
  ignore (Graph_gen.ring eng ~sites:[ s 0; s 1 ] ~per_site:1 ~rooted:false);
  Scenario.settle sim ~rounds:8;
  let wd = Obs.Watchdog.attach ~stuck_factor:0.3 sim.Sim.col in
  let started = ref None in
  Array.iter
    (fun st ->
      Tables.iter_outrefs st.Site.tables (fun o ->
          if !started = None && not (Ioref.outref_clean o) then
            started := Collector.start_back_trace sim.Sim.col st.Site.id o.Ioref.or_target))
    (Engine.sites eng);
  Alcotest.(check bool) "trace started" true (!started <> None);
  (* crash every site: frames freeze open, no outcome can ever land *)
  Array.iter (fun st -> Engine.crash eng st.Site.id) (Engine.sites eng);
  Engine.run_for eng (Sim_time.of_seconds 60.);
  let alerts = Obs.Watchdog.check_now wd in
  ignore alerts;
  let kinds = List.map fst (Obs.Watchdog.alert_counts wd) in
  Alcotest.(check bool) "stuck_trace alert" true (List.mem "stuck_trace" kinds);
  Alcotest.(check bool) "watchdog counter bumped" true
    (Metrics.get (Engine.metrics eng) "watchdog.stuck_trace" > 0);
  (* alerts are deduplicated per subject *)
  let n = List.length (Obs.Watchdog.alerts wd) in
  ignore (Obs.Watchdog.check_now wd);
  Alcotest.(check int) "no duplicate alerts" n
    (List.length (Obs.Watchdog.alerts wd))

(* A watchdog only reads: a run it watches keeps every span's real end.
   The deadline (0.0005 x the §4.7 timeout) is far below a back trace's
   duration, so alerts fire while the ring's traces are still open; an
   alert that closed the tracer's open spans would abort them and drop
   their later finishes. *)
let test_watchdog_span_neutral () =
  let run ~watched =
    let sim = Sim.make ~cfg:cfg_fast () in
    let eng = sim.Sim.eng in
    let tracer = Tel.Tracer.create () in
    Engine.attach_tracer eng tracer;
    ignore
      (Graph_gen.ring eng ~sites:[ s 0; s 1; s 2 ] ~per_site:2 ~rooted:false);
    let wd =
      if watched then
        Some
          (Obs.Watchdog.attach ~stuck_factor:0.0005
             ~check_interval:(Sim_time.of_millis 2.) sim.Sim.col)
      else None
    in
    Sim.start sim;
    Sim.run_for sim (Sim_time.of_seconds 300.);
    let counters =
      List.filter
        (fun (k, _) -> not (String.starts_with ~prefix:"watchdog." k))
        (Metrics.counters (Engine.metrics eng))
    in
    (tracer, counters, wd)
  in
  let bare, bare_counters, _ = run ~watched:false in
  let watched, watched_counters, wd = run ~watched:true in
  Alcotest.(check bool) "the watchdog alerted" true
    (Obs.Watchdog.alerts (Option.get wd) <> []);
  Alcotest.(check bool) "the run traced" true (Tel.Tracer.span_count bare > 0);
  Alcotest.(check int) "same dropped finishes"
    (Tel.Tracer.dropped_finishes bare)
    (Tel.Tracer.dropped_finishes watched);
  Alcotest.(check string) "same spans" (Tel.Tracer.to_jsonl bare)
    (Tel.Tracer.to_jsonl watched);
  Alcotest.(check (list (pair string int)))
    "same counters" bare_counters watched_counters

(* --- audit -------------------------------------------------------------- *)

let test_audit_clean_run_has_no_components () =
  let f = Scenario.fig1 ~cfg:cfg_fast () in
  let sim = f.Scenario.f1_sim in
  Engine.attach_tracer sim.Sim.eng (Tel.Tracer.create ());
  Sim.start sim;
  ignore (Sim.collect_all sim ~max_rounds:30 ());
  let rp = Obs.Audit.run sim.Sim.col in
  Alcotest.(check int) "no garbage" 0 rp.Obs.Audit.rp_garbage_objects;
  Alcotest.(check (list string)) "strict ok" [] (Obs.Audit.strict_failures rp);
  (* the collected cycle left a finished back trace: critical paths exist *)
  Alcotest.(check bool) "critical path analyzed" true
    (rp.Obs.Audit.rp_paths <> []);
  List.iter
    (fun cp ->
      Alcotest.(check bool) "positive path time" true
        (cp.Obs.Audit.cp_total_ms > 0.))
    rp.Obs.Audit.rp_paths;
  Alcotest.(check bool) "phase breakdown present" true
    (rp.Obs.Audit.rp_phases <> [])

let test_audit_not_triggered_before_any_trace () =
  let f = Scenario.fig1 ~cfg:cfg_fast () in
  let sim = f.Scenario.f1_sim in
  Engine.attach_tracer sim.Sim.eng (Tel.Tracer.create ());
  (* settle distances but never start the schedule: the f-g cycle
     survives with no trace having touched it *)
  Scenario.settle sim ~rounds:3;
  let rp = Obs.Audit.run sim.Sim.col in
  Alcotest.(check bool) "garbage present" true (rp.Obs.Audit.rp_garbage_objects > 0);
  let cycle =
    List.find
      (fun c -> c.Obs.Audit.co_cross_site)
      rp.Obs.Audit.rp_components
  in
  (match cycle.Obs.Audit.co_verdict with
  | Obs.Audit.Not_suspected | Obs.Audit.Suspected_not_triggered -> ()
  | v -> Alcotest.failf "unexpected verdict %s" (Obs.Audit.verdict_name v));
  Alcotest.(check bool) "has evidence" true (cycle.Obs.Audit.co_evidence <> []);
  Alcotest.(check (list string)) "explained, so strict ok" []
    (Obs.Audit.strict_failures rp)

let test_audit_json_shape () =
  let f = Scenario.fig1 ~cfg:cfg_fast () in
  let sim = f.Scenario.f1_sim in
  Scenario.settle sim ~rounds:3;
  let rp = Obs.Audit.run sim.Sim.col in
  let j = Obs.Audit.to_json rp in
  (match Option.bind (Tel.Json.member "schema" j) Tel.Json.to_str_opt with
  | Some "dgc.audit/1" -> ()
  | _ -> Alcotest.fail "audit schema tag");
  (* and it embeds as a run artifact's audit section *)
  let art =
    Tel.Run_artifact.make ~name:"t" ~sim_seconds:1.0 ~audit:j
      (Engine.metrics sim.Sim.eng)
  in
  (match Tel.Run_artifact.validate art with
  | Ok () -> ()
  | Error e -> Alcotest.failf "artifact with audit invalid: %s" e);
  Alcotest.(check bool) "audit section readable" true
    (Tel.Run_artifact.audit_section art <> None)

let () =
  Alcotest.run "observe"
    [
      ( "telemetry-fixes",
        [
          Alcotest.test_case "dropped finishes counted" `Quick
            test_tracer_dropped_finishes;
        ] );
      ( "snapshot",
        [ Alcotest.test_case "take and diff" `Quick test_snapshot_and_diff ] );
      ( "watchdog",
        [
          Alcotest.test_case "flags a stuck trace" `Quick
            test_watchdog_flags_stuck_trace;
          Alcotest.test_case "a watched run keeps its spans" `Quick
            test_watchdog_span_neutral;
        ] );
      ( "audit",
        [
          Alcotest.test_case "clean run: no components, paths analyzed" `Quick
            test_audit_clean_run_has_no_components;
          Alcotest.test_case "untraced garbage explained" `Quick
            test_audit_not_triggered_before_any_trace;
          Alcotest.test_case "json + artifact embedding" `Quick
            test_audit_json_shape;
        ] );
    ]
