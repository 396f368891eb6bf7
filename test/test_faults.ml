(* Fault model: partitions (parking and healing), crash interplay, and
   the §4.7 deferred/piggybacked message mode. *)

open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts
open Dgc_core
open Dgc_workload
module Local_gc = Dgc_baselines.Local_gc

let s k = Site_id.of_int k

let cfg n =
  {
    Config.default with
    Config.n_sites = n;
    delta = 3;
    threshold2 = 6;
    threshold_bump = 4;
    trace_interval = Sim_time.of_seconds 10.;
    trace_jitter = Sim_time.of_seconds 1.;
    trace_duration = Sim_time.zero;
    latency = Latency.Fixed (Sim_time.of_millis 5.);
  }

(* --- partitions ---------------------------------------------------------- *)

let test_reachability () =
  let eng = Engine.create (cfg 4) in
  Alcotest.(check bool) "initially connected" true
    (Engine.reachable eng (s 0) (s 3));
  Engine.partition eng [ [ s 0; s 1 ]; [ s 2 ] ];
  Alcotest.(check bool) "same group" true (Engine.reachable eng (s 0) (s 1));
  Alcotest.(check bool) "cross group" false (Engine.reachable eng (s 0) (s 2));
  (* unlisted sites form the implicit extra group *)
  Alcotest.(check bool) "implicit group isolated from group 0" false
    (Engine.reachable eng (s 0) (s 3));
  Engine.heal eng;
  Alcotest.(check bool) "healed" true (Engine.reachable eng (s 0) (s 2))

let test_partition_parks_base_messages () =
  let eng = Engine.create (cfg 2) in
  let journal = Journal.create ~capacity:256 () in
  Engine.attach_journal eng journal;
  Local_gc.install eng;
  let muts = Mutator.manager eng in
  let root0 = Builder.root_obj eng (s 0) in
  let target = Builder.root_obj eng (s 1) in
  Builder.link eng ~src:root0 ~dst:target;
  let a = Mutator.spawn muts ~at:(s 0) in
  ignore (Mutator.load_root a ~dst:"r");
  ignore (Mutator.read_field a ~obj:"r" ~idx:0 ~dst:"t");
  Engine.partition eng [ [ s 0 ]; [ s 1 ] ];
  let arrived = ref false in
  ignore (Mutator.travel a ~via:"t" ~k:(fun () -> arrived := true));
  Engine.run_for eng (Sim_time.of_seconds 2.);
  Alcotest.(check bool) "move parked across the partition" false !arrived;
  (* the carried references still count as roots for the oracle *)
  Alcotest.(check bool) "parked refs are oracle roots" true
    (Engine.in_flight_refs eng <> []);
  (* the stalled insert barrier is journaled, not silent *)
  Alcotest.(check bool) "barrier.move_stalled counted" true
    (Metrics.get (Engine.metrics eng) "barrier.move_stalled" >= 1);
  let stalls = Journal.entries ~cat:"barrier" ~min_level:Journal.Warn journal in
  Alcotest.(check bool) "move stall journaled at Warn" true
    (List.exists
       (fun e -> String.length e.Journal.text >= 4
                 && String.sub e.Journal.text 0 4 = "move")
       stalls);
  Engine.heal eng;
  Engine.run_for eng (Sim_time.of_seconds 2.);
  Alcotest.(check bool) "delivered after heal" true !arrived

let test_partition_move_ack_stall_journaled () =
  (* The §6.1.2 ack leg: the Move itself lands before the partition,
     but the Move_ack releasing the sender's pins is in flight when the
     partition hits. The stall must land in the journal (Warn, cat
     "barrier") and in [barrier.move_stalled] — previously the ack was
     parked silently. *)
  let eng = Engine.create (cfg 2) in
  let journal = Journal.create ~capacity:256 () in
  Engine.attach_journal eng journal;
  Local_gc.install eng;
  let muts = Mutator.manager eng in
  let root0 = Builder.root_obj eng (s 0) in
  let target = Builder.root_obj eng (s 1) in
  Builder.link eng ~src:root0 ~dst:target;
  let a = Mutator.spawn muts ~at:(s 0) in
  ignore (Mutator.load_root a ~dst:"r");
  ignore (Mutator.read_field a ~obj:"r" ~idx:0 ~dst:"t");
  (* Carry only the destination-local ref so the arrival needs no
     Insert round and the ack goes straight back. *)
  ignore (Mutator.drop a "r");
  (* Fixed 5ms latency: the Move delivers at +5ms, its ack would land
     at +10ms; partition at +7ms catches the ack in flight. *)
  Engine.schedule eng ~delay:(Sim_time.of_millis 7.) (fun () ->
      Engine.partition eng [ [ s 0 ]; [ s 1 ] ]);
  let arrived = ref false in
  ignore (Mutator.travel a ~via:"t" ~k:(fun () -> arrived := true));
  Engine.run_for eng (Sim_time.of_seconds 2.);
  Alcotest.(check bool) "mutator landed before the partition" true !arrived;
  Alcotest.(check bool) "ack stall counted" true
    (Metrics.get (Engine.metrics eng) "barrier.move_stalled" >= 1);
  let stalls = Journal.entries ~cat:"barrier" ~min_level:Journal.Warn journal in
  Alcotest.(check bool) "ack stall names the pins" true
    (List.exists
       (fun e ->
         String.length e.Journal.text >= 8
         && String.sub e.Journal.text 0 8 = "move-ack")
       stalls);
  (* sender pins survive until the heal lets the ack through *)
  Engine.heal eng;
  Engine.run_for eng (Sim_time.of_seconds 2.);
  Alcotest.(check bool) "pins released after heal" true
    (Engine.in_flight_refs eng = [])

let test_partition_delays_cycle_collection () =
  let sim = Sim.make ~cfg:(cfg 4) () in
  let eng = sim.Sim.eng in
  (* One cycle inside a partition group, one across the boundary. *)
  ignore (Graph_gen.ring eng ~sites:[ s 0; s 1 ] ~per_site:1 ~rooted:false);
  ignore (Graph_gen.ring eng ~sites:[ s 2; s 3 ] ~per_site:1 ~rooted:false);
  Engine.partition eng [ [ s 0; s 1; s 2 ]; [ s 3 ] ];
  Sim.start sim;
  Sim.run_rounds sim 20;
  let alive sites =
    List.fold_left
      (fun acc site -> acc + Heap.object_count (Engine.site eng site).Site.heap)
      0 sites
  in
  Alcotest.(check int) "cycle inside the group collected" 0
    (alive [ s 0; s 1 ]);
  Alcotest.(check bool) "cross-boundary cycle survives" true
    (alive [ s 2; s 3 ] > 0);
  Engine.heal eng;
  let ok = Sim.collect_all sim ~max_rounds:40 () in
  Alcotest.(check bool) "collected after heal" true ok

let test_partition_in_flight_message_parked () =
  let eng = Engine.create (cfg 2) in
  Local_gc.install eng;
  (* Fire a base message, partition while it flies. *)
  Engine.send eng ~src:(s 0) ~dst:(s 1)
    (Protocol.Update { removals = []; dists = [] });
  Engine.partition eng [ [ s 0 ]; [ s 1 ] ];
  Engine.run_for eng (Sim_time.of_seconds 1.);
  (* It must not have been lost: heal and deliver (observable via the
     absence of errors and via metrics bookkeeping). *)
  Engine.heal eng;
  Engine.run_for eng (Sim_time.of_seconds 1.);
  Alcotest.(check int) "nothing dropped" 0
    (Metrics.get (Engine.metrics eng) "msg.dropped.partition")

let test_partitioned_back_trace_assumes_live () =
  (* A back trace crossing a partition boundary times out to Live and
     the garbage survives until the heal — safety first. *)
  let sim = Sim.make ~cfg:(cfg 2) () in
  let eng = sim.Sim.eng in
  ignore (Graph_gen.ring eng ~sites:[ s 0; s 1 ] ~per_site:1 ~rooted:false);
  Scenario.settle sim ~rounds:8;
  Engine.partition eng [ [ s 0 ]; [ s 1 ] ];
  let outcome = ref None in
  Back_trace.on_outcome (Collector.back sim.Sim.col) (fun _ v _ ->
      outcome := Some v);
  let started = ref false in
  Array.iter
    (fun st ->
      Tables.iter_outrefs st.Site.tables (fun o ->
          if (not !started) && not (Ioref.outref_clean o) then begin
            started :=
              Collector.start_back_trace sim.Sim.col st.Site.id
                o.Ioref.or_target
              <> None
          end))
    (Engine.sites eng);
  Alcotest.(check bool) "trace started" true !started;
  Sim.run_for sim (Sim_time.of_seconds 30.);
  (match !outcome with
  | Some v ->
      Alcotest.(check bool) "timeout reads as Live" true
        (Verdict.equal v Verdict.Live)
  | None -> Alcotest.fail "trace never completed");
  Alcotest.(check bool) "garbage preserved" true
    (Dgc_oracle.Oracle.garbage_count eng > 0)

(* --- audit under faults (the observe library) ----------------------------- *)

module Obs = Dgc_observe
module Tel = Dgc_telemetry

(* A 2-site garbage ring with distances settled (and, unless [tracer]
   is false, a tracer attached): one cross-site garbage component, ready
   to trace. *)
let garbage_ring_sim ?(timeout = 10.) ?(tracer = true) () =
  let c =
    { (cfg 2) with Config.back_call_timeout = Sim_time.of_seconds timeout }
  in
  let sim = Sim.make ~cfg:c () in
  ignore
    (Graph_gen.ring sim.Sim.eng ~sites:[ s 0; s 1 ] ~per_site:1 ~rooted:false);
  if tracer then Engine.attach_tracer sim.Sim.eng (Tel.Tracer.create ());
  Scenario.settle sim ~rounds:8;
  sim

let start_any_trace sim =
  let started = ref None in
  Array.iter
    (fun st ->
      Tables.iter_outrefs st.Site.tables (fun o ->
          if !started = None && not (Ioref.outref_clean o) then
            started :=
              Collector.start_back_trace sim.Sim.col st.Site.id
                o.Ioref.or_target))
    (Engine.sites sim.Sim.eng);
  Alcotest.(check bool) "trace started" true (!started <> None)

let the_component rp =
  match rp.Obs.Audit.rp_components with
  | [ c ] -> c
  | cs ->
      Alcotest.failf "expected one garbage component, got %d" (List.length cs)

let check_explained rp c =
  Alcotest.(check bool) "has evidence" true (c.Obs.Audit.co_evidence <> []);
  Alcotest.(check bool) "names the trace" true (c.Obs.Audit.co_traces <> []);
  Alcotest.(check (list string)) "strict gate passes" []
    (Obs.Audit.strict_failures rp)

let test_audit_crash_mid_trace_times_out () =
  let sim = garbage_ring_sim () in
  start_any_trace sim;
  (* the back call is in flight; the destination dies before replying,
     the §4.6 timeout concludes Live, the cycle survives *)
  Engine.crash sim.Sim.eng (s 1);
  Sim.run_for sim (Sim_time.of_seconds 60.);
  let rp = Obs.Audit.run sim.Sim.col in
  let c = the_component rp in
  (match c.Obs.Audit.co_verdict with
  | Obs.Audit.Trace_timed_out -> ()
  | v ->
      Alcotest.failf "verdict %s, wanted TraceTimedOut"
        (Obs.Audit.verdict_name v));
  check_explained rp c

let test_audit_crash_mid_trace_incomplete () =
  (* With a slack timeout the crashed call never resolves at all: the
     trace has no outcome and the open spans are the evidence. Without
     a tracer the audit still explains the stuck trace, from the
     collector's trace record and ledger. *)
  List.iter
    (fun tracer ->
      let sim = garbage_ring_sim ~timeout:600. ~tracer () in
      start_any_trace sim;
      Engine.crash sim.Sim.eng (s 1);
      Sim.run_for sim (Sim_time.of_seconds 60.);
      let rp = Obs.Audit.run sim.Sim.col in
      let c = the_component rp in
      (match c.Obs.Audit.co_verdict with
      | Obs.Audit.Trace_incomplete -> ()
      | v ->
          Alcotest.failf "tracer %b: verdict %s, wanted TraceIncomplete" tracer
            (Obs.Audit.verdict_name v));
      check_explained rp c)
    [ true; false ]

let test_audit_partition_during_report () =
  let sim = garbage_ring_sim () in
  let eng = sim.Sim.eng in
  let tracer =
    match Engine.tracer eng with Some t -> t | None -> assert false
  in
  (* Partition the moment a report span opens: the report to the other
     participant crosses the boundary and is dropped. *)
  let fired = ref false in
  Engine.add_step_watcher eng (fun () ->
      if
        (not !fired)
        && List.exists
             (fun sp -> sp.Tel.Tracer.name = "report")
             (Tel.Tracer.open_spans tracer)
      then begin
        fired := true;
        Engine.partition eng [ [ s 0 ]; [ s 1 ] ]
      end);
  start_any_trace sim;
  Sim.run_for sim (Sim_time.of_seconds 60.);
  Alcotest.(check bool) "partition landed during the report phase" true !fired;
  let rp = Obs.Audit.run sim.Sim.col in
  if rp.Obs.Audit.rp_garbage_objects > 0 then begin
    let c = the_component rp in
    (match c.Obs.Audit.co_verdict with
    | Obs.Audit.Trace_incomplete | Obs.Audit.Trace_timed_out
    | Obs.Audit.Flagged_not_swept ->
        ()
    | v ->
        Alcotest.failf "verdict %s, wanted an incomplete/timeout family one"
          (Obs.Audit.verdict_name v));
    check_explained rp c
  end

(* --- deferral (§4.7) ------------------------------------------------------ *)

let test_deferral_batches_messages () =
  let cfg_defer =
    { (cfg 3) with Config.defer_interval = Sim_time.of_millis 100. }
  in
  let sim = Sim.make ~cfg:cfg_defer () in
  let eng = sim.Sim.eng in
  ignore (Graph_gen.ring eng ~sites:[ s 0; s 1; s 2 ] ~per_site:2 ~rooted:false);
  Sim.start sim;
  let ok = Sim.collect_all sim ~max_rounds:40 () in
  Alcotest.(check bool) "collection still completes" true ok;
  let m = Engine.metrics eng in
  Alcotest.(check bool) "batches were used" true (Metrics.get m "msg.batches" > 0);
  (* every wire batch carried at least one back-trace payload *)
  Alcotest.(check bool) "payload counters unchanged semantics" true
    (Metrics.get m "msg.back_call" > 0)

let test_deferral_wire_savings () =
  (* Same workload with and without deferral: deferral must not
     increase the number of wire messages attributable to the back
     tracer (batching can only merge). *)
  let run defer =
    let c =
      {
        (cfg 3) with
        Config.defer_interval =
          (if defer then Sim_time.of_millis 200. else Sim_time.zero);
        back_call_timeout = Sim_time.of_seconds 20.;
        seed = 11;
      }
    in
    let sim = Sim.make ~cfg:c () in
    ignore
      (Graph_gen.clique sim.Sim.eng ~sites:[ s 0; s 1; s 2 ] ~rooted:false);
    Sim.start sim;
    ignore (Sim.collect_all sim ~max_rounds:60 ());
    let m = Engine.metrics sim.Sim.eng in
    (Metrics.get m "msg.total", Metrics.get m "msg.back_call")
  in
  let eager_total, eager_calls = run false in
  let defer_total, defer_calls = run true in
  Alcotest.(check bool) "work comparable (logical calls)" true
    (defer_calls > 0 && eager_calls > 0);
  Alcotest.(check bool)
    (Format.asprintf "wire messages do not blow up (%d eager vs %d deferred)"
       eager_total defer_total)
    true
    (defer_total <= eager_total * 2)

(* A batched collector message lost to a partition is a partition drop,
   never a crash drop — both when the partition is already up at the
   flush and when it cuts the batch in flight. *)
let test_deferral_partition_drops () =
  let drops ~partition_after_ms =
    let c =
      { (cfg 2) with Config.defer_interval = Sim_time.of_millis 100. }
    in
    let sim = Sim.make ~cfg:c () in
    let eng = sim.Sim.eng in
    ignore (Graph_gen.ring eng ~sites:[ s 0; s 1 ] ~per_site:1 ~rooted:false);
    Scenario.settle sim ~rounds:8;
    let m = Engine.metrics eng in
    let before = Metrics.get m "msg.batches" in
    Engine.schedule eng ~delay:(Sim_time.of_millis partition_after_ms)
      (fun () -> Engine.partition eng [ [ s 0 ]; [ s 1 ] ]);
    let started = ref false in
    Array.iter
      (fun st ->
        Tables.iter_outrefs st.Site.tables (fun o ->
            if (not !started) && not (Ioref.outref_clean o) then
              started :=
                Collector.start_back_trace sim.Sim.col st.Site.id
                  o.Ioref.or_target
                <> None))
      (Engine.sites eng);
    Alcotest.(check bool) "a back trace started" true !started;
    Engine.run_for eng (Sim_time.of_seconds 1.);
    Alcotest.(check bool) "the call went out batched" true
      (Metrics.get m "msg.batches" > before);
    (Metrics.get m "msg.dropped.partition", Metrics.get m "msg.dropped.crashed")
  in
  List.iter
    (fun (label, after) ->
      let partition, crashed = drops ~partition_after_ms:after in
      Alcotest.(check bool) (label ^ ": counted as partition") true
        (partition > 0);
      Alcotest.(check int) (label ^ ": not counted as crashed") 0 crashed)
    [ ("partitioned at flush", 0.); ("partitioned in flight", 102.) ]

(* One deferred ring run, pinned: its wire counters and the digest of
   its flight dump (sends, deliveries, drops with their reasons, span
   edges). Lossy and duplicated batches and retried calls all ride the
   one wire path; a change to how a batch is sent, flown, dropped or
   duplicated moves this pin. *)
let deferred_ring_counters = [ 39; 21; 3; 6; 22 ]
let deferred_ring_flight = "c6f9c92292a75982089cd4272b4d9e6c"

let test_deferral_pinned_run () =
  let c =
    {
      (cfg 3) with
      Config.defer_interval = Sim_time.of_millis 100.;
      ext_drop = 0.25;
      ext_dup = 0.25;
      retry_limit = 2;
      seed = 7;
    }
  in
  let sim = Sim.make ~cfg:c () in
  let eng = sim.Sim.eng in
  Engine.attach_tracer eng (Dgc_telemetry.Tracer.create ());
  let sites = [ s 0; s 1; s 2 ] in
  ignore (Graph_gen.ring eng ~sites ~per_site:2 ~rooted:false);
  ignore (Graph_gen.ring eng ~sites ~per_site:1 ~rooted:true);
  Sim.start sim;
  let ok = Sim.collect_all sim ~max_rounds:40 () in
  let m = Engine.metrics eng in
  let counters =
    List.map (Metrics.get m)
      [
        "msg.total"; "msg.batches"; "msg.duplicated"; "msg.dropped.lossy";
        "back.msgs";
      ]
  in
  let flight =
    match Engine.dump_flight eng ~reason:"deferred ring" with
    | Some j ->
        Digest.to_hex (Digest.string (Dgc_telemetry.Json.to_string j))
    | None -> Alcotest.fail "no flight recorder attached"
  in
  Alcotest.(check bool) "collected" true ok;
  Alcotest.(check (list int)) "wire counters" deferred_ring_counters counters;
  Alcotest.(check string) "flight dump digest" deferred_ring_flight flight

let () =
  Alcotest.run "faults"
    [
      ( "partition",
        [
          Alcotest.test_case "reachability" `Quick test_reachability;
          Alcotest.test_case "base messages park" `Quick
            test_partition_parks_base_messages;
          Alcotest.test_case "in-flight move-ack stall is journaled" `Quick
            test_partition_move_ack_stall_journaled;
          Alcotest.test_case "cycle collection localized" `Quick
            test_partition_delays_cycle_collection;
          Alcotest.test_case "in-flight parked" `Quick
            test_partition_in_flight_message_parked;
          Alcotest.test_case "back trace assumes Live" `Quick
            test_partitioned_back_trace_assumes_live;
        ] );
      ( "audit",
        [
          Alcotest.test_case "crash mid-trace -> TraceTimedOut" `Quick
            test_audit_crash_mid_trace_times_out;
          Alcotest.test_case "crash mid-trace, slack timeout -> TraceIncomplete"
            `Quick test_audit_crash_mid_trace_incomplete;
          Alcotest.test_case "partition during the report phase" `Quick
            test_audit_partition_during_report;
        ] );
      ( "deferral",
        [
          Alcotest.test_case "batches and still collects" `Quick
            test_deferral_batches_messages;
          Alcotest.test_case "wire savings" `Quick test_deferral_wire_savings;
          Alcotest.test_case "partition drops counted as partition" `Quick
            test_deferral_partition_drops;
          Alcotest.test_case "a ring run is pinned" `Quick
            test_deferral_pinned_run;
        ] );
    ]
