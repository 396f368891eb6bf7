(* The observe library: snapshots and diffs, the why-not-collected
   auditor, plus the telemetry fix that feeds them (dropped span
   finishes). *)

open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts
open Dgc_core
open Dgc_workload
module Tel = Dgc_telemetry
module Obs = Dgc_observe

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
