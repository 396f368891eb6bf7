(* Back tracing (§4): the figure scenarios, verdicts, thresholds,
   report phase, timeouts, and multiple concurrent traces. *)

open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts
open Dgc_core
open Dgc_workload

let cfg_fast =
  {
    Config.default with
    Config.delta = 3;
    threshold2 = 6;
    threshold_bump = 4;
    trace_duration = Sim_time.zero (* atomic local traces *);
  }

let oid = Alcotest.testable Oid.pp Oid.equal
let verdict = Alcotest.testable Verdict.pp Verdict.equal

let find_outref eng r ~at =
  Tables.find_outref (Engine.site eng at).Site.tables r

let tables_of eng r = (Engine.site eng (Oid.site r)).Site.tables
let find_inref eng r = Tables.find_inref (tables_of eng r) r

(* --- Figure 1: local tracing collects d,e; back tracing collects the
   f-g cycle ----------------------------------------------------------- *)

let test_fig1_local_collects_acyclic () =
  let f = Scenario.fig1 ~cfg:cfg_fast () in
  let eng = f.f1_sim.Sim.eng in
  Scenario.settle f.f1_sim ~rounds:3;
  let heap_p = (Engine.site eng f.f1_p).Site.heap in
  let heap_q = (Engine.site eng f.f1_q).Site.heap in
  Alcotest.(check bool) "d collected" false (Heap.mem heap_q f.f1_d);
  Alcotest.(check bool) "e collected" false (Heap.mem heap_p f.f1_e);
  (* The live part stays. *)
  Alcotest.(check bool) "a alive" true (Heap.mem heap_p f.f1_a);
  Alcotest.(check bool) "b alive" true (Heap.mem heap_q f.f1_b);
  (* The inter-site cycle survives local tracing alone. *)
  Alcotest.(check bool) "f survives local tracing" true
    (Heap.mem heap_q f.f1_f);
  Alcotest.(check bool) "g survives local tracing" true
    (Heap.mem (Engine.site eng f.f1_r).Site.heap f.f1_g)

let test_fig1_back_tracing_collects_cycle () =
  let f = Scenario.fig1 ~cfg:cfg_fast () in
  let sim = f.f1_sim in
  let eng = sim.Sim.eng in
  Sim.start sim;
  let ok = Sim.collect_all sim ~max_rounds:30 () in
  Alcotest.(check bool) "all garbage collected" true ok;
  (* Exactly the garbage died. *)
  let heap_q = (Engine.site eng f.f1_q).Site.heap in
  let heap_r = (Engine.site eng f.f1_r).Site.heap in
  Alcotest.(check bool) "f collected" false (Heap.mem heap_q f.f1_f);
  Alcotest.(check bool) "g collected" false (Heap.mem heap_r f.f1_g);
  Alcotest.(check bool) "c alive" true (Heap.mem heap_r f.f1_c);
  (* Locality: the trace only involved Q and R (the cycle's sites). *)
  let stats = Back_trace.stats (Collector.back sim.Sim.col) in
  let garbage_traces =
    List.filter
      (fun (_, s) ->
        match s.Back_trace.ts_outcome with
        | Some (Verdict.Garbage, _) -> true
        | _ -> false)
      stats
  in
  Alcotest.(check bool) "at least one garbage trace" true
    (garbage_traces <> []);
  List.iter
    (fun (_, s) ->
      Site_id.Set.iter
        (fun p ->
          Alcotest.(check bool)
            (Format.asprintf "participant %a on cycle" Site_id.pp p)
            true
            (Site_id.equal p f.f1_q || Site_id.equal p f.f1_r))
        s.Back_trace.ts_participants)
    garbage_traces

(* --- Figure 2: traces must start from outrefs ------------------------- *)

let suspect_all_inrefs eng =
  (* Force everything into the suspected regime: raise recorded source
     distances above delta and re-run local traces so outsets exist. *)
  Array.iter
    (fun s ->
      Tables.iter_inrefs s.Site.tables (fun ir ->
          List.iter
            (fun src ->
              Tables.set_source_dist s.Site.tables ir src.Ioref.src_site
                ~dist:100)
            ir.Ioref.ir_sources))
    (Engine.sites eng)

let test_fig2_insets () =
  let f = Scenario.fig2 ~cfg:cfg_fast () in
  let sim = f.f2_sim in
  let eng = sim.Sim.eng in
  suspect_all_inrefs eng;
  Collector.force_local_trace_all sim.Sim.col;
  (* inset of outref c at Q = {a, b} *)
  match find_outref eng f.f2_c ~at:(Oid.site f.f2_a) with
  | None -> Alcotest.fail "outref c missing at Q"
  | Some o ->
      Alcotest.(check (list oid))
        "inset of outref c"
        (List.sort Oid.compare [ f.f2_a; f.f2_b ])
        (List.sort Oid.compare o.Ioref.or_inset)

let test_fig2_trace_from_outref_confirms_garbage () =
  let f = Scenario.fig2 ~cfg:cfg_fast () in
  let sim = f.f2_sim in
  let eng = sim.Sim.eng in
  suspect_all_inrefs eng;
  Collector.force_local_trace_all sim.Sim.col;
  let outcome = ref None in
  Back_trace.on_outcome (Collector.back sim.Sim.col) (fun _ v _ ->
      outcome := Some v);
  (* Start from outref c at Q: finds all paths to everything. *)
  let t =
    Collector.start_back_trace sim.Sim.col (Oid.site f.f2_a) f.f2_c
  in
  Alcotest.(check bool) "trace started" true (t <> None);
  Sim.run_for sim (Sim_time.of_seconds 5.);
  (match !outcome with
  | Some v -> Alcotest.check verdict "outcome" Verdict.Garbage v
  | None -> Alcotest.fail "trace did not complete");
  (* All four inrefs are now flagged. *)
  List.iter
    (fun r ->
      match find_inref eng r with
      | Some ir ->
          Alcotest.(check bool)
            (Format.asprintf "inref %a flagged" Oid.pp r)
            true ir.Ioref.ir_flagged
      | None -> Alcotest.fail "inref missing")
    [ f.f2_a; f.f2_b; f.f2_c; f.f2_d ]

(* --- Figure 3: branching, one branch garbage, trace returns Live ------ *)

let test_fig3_branching_live () =
  let f = Scenario.fig3 ~cfg:cfg_fast () in
  let sim = f.f3_sim in
  let eng = sim.Sim.eng in
  Scenario.settle sim ~rounds:4;
  (* Everything is live here; distances converge to small values, so
     nothing is suspected. Force suspicion to exercise the branch. *)
  suspect_all_inrefs eng;
  (* ... except the root-side inref a stays clean. *)
  (match find_inref eng f.f3_a with
  | Some ir ->
      List.iter
        (fun src ->
          Tables.set_source_dist (tables_of eng f.f3_a) ir src.Ioref.src_site
            ~dist:1)
        ir.Ioref.ir_sources
  | None -> Alcotest.fail "inref a missing");
  Collector.force_local_trace_all sim.Sim.col;
  let outcome = ref None in
  Back_trace.on_outcome (Collector.back sim.Sim.col) (fun _ v _ ->
      outcome := Some v);
  let t =
    Collector.start_back_trace sim.Sim.col (Oid.site f.f3_c) f.f3_d
  in
  Alcotest.(check bool) "trace started" true (t <> None);
  Sim.run_for sim (Sim_time.of_seconds 5.);
  (match !outcome with
  | Some v -> Alcotest.check verdict "outcome" Verdict.Live v
  | None -> Alcotest.fail "trace did not complete");
  (* Live outcome: no inref flagged anywhere. *)
  Array.iter
    (fun s ->
      Tables.iter_inrefs s.Site.tables (fun ir ->
          Alcotest.(check bool) "no flag" false ir.Ioref.ir_flagged))
    (Engine.sites eng)

(* --- trigger policy (§4.3) --------------------------------------------- *)

let test_threshold_bump_silences_live_suspects () =
  (* A live structure far from the root stays suspected forever; back
     traces fire, return Live, bump the thresholds, and stop. *)
  let cfg = { cfg_fast with Config.n_sites = 6; threshold2 = 4 } in
  let sim = Sim.make ~cfg () in
  let eng = sim.Sim.eng in
  ignore
    (Graph_gen.chain eng
       ~sites:(List.init 6 Site_id.of_int)
       ~per_site:1 ~rooted:true);
  Sim.start sim;
  Sim.run_rounds sim 10;
  let after_warmup = Metrics.get (Engine.metrics eng) "back.traces_started" in
  Alcotest.(check bool) "some abortive traces fired" true (after_warmup > 0);
  Alcotest.(check int) "all returned Live" after_warmup
    (Metrics.get (Engine.metrics eng) "back.outcome_live");
  (* Distances are fixed now; thresholds have been bumped above them:
     another stretch starts (almost) nothing new. *)
  Sim.run_rounds sim 20;
  let later = Metrics.get (Engine.metrics eng) "back.traces_started" in
  Alcotest.(check bool)
    (Format.asprintf "trace rate collapses (%d then %d)" after_warmup later)
    true
    (later - after_warmup <= after_warmup)

let test_max_trace_starts_cap () =
  let cfg = { cfg_fast with Config.n_sites = 2; max_trace_starts = 1 } in
  let sim = Sim.make ~cfg () in
  let eng = sim.Sim.eng in
  (* Several independent 2-site cycles: each site accumulates multiple
     eligible outrefs, but may only start one trace per round. *)
  for _ = 1 to 4 do
    ignore
      (Graph_gen.ring eng
         ~sites:[ Site_id.of_int 0; Site_id.of_int 1 ]
         ~per_site:1 ~rooted:false)
  done;
  Scenario.settle sim ~rounds:8;
  let started = Collector.trigger_back_traces sim.Sim.col (Site_id.of_int 0) in
  Alcotest.(check int) "only one trace started" 1 (List.length started)

let test_adaptive_threshold_raises () =
  (* A system full of live suspects: with [adaptive_threshold] the
     collector notices the abortive verdicts and raises its effective
     Δ2, so newly suspected outrefs start with a higher bar. *)
  let cfg =
    {
      cfg_fast with
      Config.n_sites = 6;
      threshold2 = 4;
      adaptive_threshold = true;
    }
  in
  let sim = Sim.make ~cfg () in
  let eng = sim.Sim.eng in
  (* Six live chains in rotated site orders: each ends in a deep live
     suspect, so the first round of traces yields a burst of abortive
     Live verdicts. *)
  for rot = 0 to 5 do
    ignore
      (Graph_gen.chain eng
         ~sites:(List.init 6 (fun i -> Site_id.of_int ((i + rot) mod 6)))
         ~per_site:1 ~rooted:true)
  done;
  Alcotest.(check int) "starts at the configured value" 4
    (Collector.effective_threshold2 sim.Sim.col);
  Sim.start sim;
  Sim.run_rounds sim 25;
  Alcotest.(check bool) "abortive traces happened" true
    (Metrics.get (Engine.metrics eng) "back.outcome_live" > 0);
  Alcotest.(check bool) "threshold raised" true
    (Collector.effective_threshold2 sim.Sim.col > 4);
  Alcotest.(check bool) "raises counted" true
    (Metrics.get (Engine.metrics eng) "adaptive.threshold_raised" > 0)

let test_adaptive_does_not_raise_on_garbage () =
  (* Garbage-dominated outcomes must not inflate the threshold. *)
  let cfg =
    { cfg_fast with Config.n_sites = 2; adaptive_threshold = true }
  in
  let sim = Sim.make ~cfg () in
  let eng = sim.Sim.eng in
  for _ = 1 to 4 do
    ignore
      (Graph_gen.ring eng
         ~sites:[ Site_id.of_int 0; Site_id.of_int 1 ]
         ~per_site:1 ~rooted:false)
  done;
  Sim.start sim;
  ignore (Sim.collect_all sim ~max_rounds:40 ());
  Alcotest.(check bool) "several garbage verdicts" true
    (Metrics.get (Engine.metrics eng) "back.outcome_garbage" >= 4);
  Alcotest.(check int) "threshold unchanged" cfg.Config.threshold2
    (Collector.effective_threshold2 sim.Sim.col)

(* --- robustness --------------------------------------------------------- *)

let test_call_on_missing_ioref_returns_garbage () =
  let f = Scenario.fig2 ~cfg:cfg_fast () in
  let sim = f.f2_sim in
  let eng = sim.Sim.eng in
  suspect_all_inrefs eng;
  Collector.force_local_trace_all sim.Sim.col;
  (* Delete outref c's inset target behind the scenes: the local step
     from c reaches a missing inref and treats it as deleted garbage. *)
  Tables.remove_inref (Engine.site eng (Oid.site f.f2_a)).Site.tables f.f2_a;
  Tables.remove_inref (Engine.site eng (Oid.site f.f2_b)).Site.tables f.f2_b;
  let outcome = ref None in
  Back_trace.on_outcome (Collector.back sim.Sim.col) (fun _ v _ ->
      outcome := Some v);
  ignore (Collector.start_back_trace sim.Sim.col (Oid.site f.f2_a) f.f2_c);
  Sim.run_for sim (Sim_time.of_seconds 5.);
  match !outcome with
  | Some v -> Alcotest.check verdict "missing iorefs read as garbage"
                Verdict.Garbage v
  | None -> Alcotest.fail "trace did not complete"

let test_flagged_inref_reads_as_garbage () =
  let f = Scenario.fig2 ~cfg:cfg_fast () in
  let sim = f.f2_sim in
  let eng = sim.Sim.eng in
  suspect_all_inrefs eng;
  Collector.force_local_trace_all sim.Sim.col;
  (* Pre-flag a (as an earlier trace's report would have). *)
  (match find_inref eng f.f2_a with
  | Some ir -> Tables.flag_inref (tables_of eng f.f2_a) ir
  | None -> Alcotest.fail "inref a missing");
  let outcome = ref None in
  Back_trace.on_outcome (Collector.back sim.Sim.col) (fun _ v _ ->
      outcome := Some v);
  ignore (Collector.start_back_trace sim.Sim.col (Oid.site f.f2_a) f.f2_c);
  Sim.run_for sim (Sim_time.of_seconds 5.);
  match !outcome with
  | Some v ->
      Alcotest.check verdict "flagged branch contributes garbage"
        Verdict.Garbage v
  | None -> Alcotest.fail "trace did not complete"

let test_visited_ttl_cleanup_allows_retry () =
  (* Drop every collector message after the trace starts: the report
     never arrives, participants clear their marks via the TTL, and a
     later trace completes the collection. *)
  let cfg =
    {
      cfg_fast with
      Config.n_sites = 2;
      latency = Latency.Fixed (Sim_time.of_millis 10.);
      back_call_timeout = Sim_time.of_seconds 3.;
      visited_ttl = Sim_time.of_seconds 6.;
    }
  in
  let sim = Sim.make ~cfg () in
  let eng = sim.Sim.eng in
  ignore
    (Graph_gen.ring eng
       ~sites:[ Site_id.of_int 0; Site_id.of_int 1 ]
       ~per_site:1 ~rooted:false);
  Scenario.settle sim ~rounds:8;
  let trace_started = ref false in
  Array.iter
    (fun st ->
      Tables.iter_outrefs st.Site.tables (fun o ->
          if (not !trace_started) && not (Ioref.outref_clean o) then
            trace_started :=
              Collector.start_back_trace sim.Sim.col st.Site.id
                o.Ioref.or_target
              <> None))
    (Engine.sites eng);
  Alcotest.(check bool) "trace started" true !trace_started;
  (* Cut the network at +35ms: the participant has marked its iorefs
     visited (call delivered at +10ms) but the final reply (+40ms) and
     the report are lost. The initiator times out to Live; the
     participant's marks must expire via the TTL. *)
  Engine.schedule eng ~delay:(Sim_time.of_millis 35.) (fun () ->
      Engine.partition eng [ [ Site_id.of_int 0 ]; [ Site_id.of_int 1 ] ]);
  Sim.run_for sim (Sim_time.of_seconds 30.);
  Alcotest.(check bool) "TTL fired" true
    (Metrics.get (Engine.metrics eng) "back.visited_ttl_expired" > 0);
  (* no stale visited marks remain *)
  Array.iter
    (fun st ->
      Tables.iter_inrefs st.Site.tables (fun ir ->
          Alcotest.(check bool) "inref marks cleared" true
            (Trace_id.Set.is_empty ir.Ioref.ir_visited));
      Tables.iter_outrefs st.Site.tables (fun o ->
          Alcotest.(check bool) "outref marks cleared" true
            (Trace_id.Set.is_empty o.Ioref.or_visited)))
    (Engine.sites eng);
  Engine.heal eng;
  Sim.start sim;
  let ok = Sim.collect_all ~max_rounds:40 sim () in
  Alcotest.(check bool) "retry collects after heal" true ok

let test_trace_stats_accounting () =
  let f = Scenario.fig1 ~cfg:cfg_fast () in
  let sim = f.f1_sim in
  Sim.start sim;
  ignore (Sim.collect_all sim ~max_rounds:30 ());
  let stats = Back_trace.stats (Collector.back sim.Sim.col) in
  Alcotest.(check bool) "stats recorded" true (stats <> []);
  List.iter
    (fun (id, st) ->
      Alcotest.(check bool) "initiator matches id" true
        (Site_id.equal id.Trace_id.initiator st.Back_trace.ts_initiator);
      match st.Back_trace.ts_outcome with
      | Some (_, at) ->
          Alcotest.(check bool) "finished after it started" true
            (Sim_time.compare st.Back_trace.ts_started at <= 0);
          Alcotest.(check bool) "messages counted" true
            (st.Back_trace.ts_msgs >= 2 * st.Back_trace.ts_calls);
          Alcotest.(check bool) "participants non-empty" true
            (not (Site_id.Set.is_empty st.Back_trace.ts_participants))
      | None -> ())
    stats;
  (* find_stat agrees with stats *)
  match stats with
  | (id, st) :: _ ->
      Alcotest.(check bool) "find_stat" true
        (Back_trace.find_stat (Collector.back sim.Sim.col) id = Some st)
  | [] -> ()

let () =
  Alcotest.run "back_trace"
    [
      ( "fig1",
        [
          Alcotest.test_case "local tracing collects acyclic garbage" `Quick
            test_fig1_local_collects_acyclic;
          Alcotest.test_case "back tracing collects the f-g cycle" `Quick
            test_fig1_back_tracing_collects_cycle;
        ] );
      ( "fig2",
        [
          Alcotest.test_case "insets match the figure" `Quick test_fig2_insets;
          Alcotest.test_case "outref-start confirms garbage" `Quick
            test_fig2_trace_from_outref_confirms_garbage;
        ] );
      ( "fig3",
        [
          Alcotest.test_case "branching trace returns Live" `Quick
            test_fig3_branching_live;
        ] );
      ( "trigger",
        [
          Alcotest.test_case "threshold bump silences live suspects" `Quick
            test_threshold_bump_silences_live_suspects;
          Alcotest.test_case "max_trace_starts cap" `Quick
            test_max_trace_starts_cap;
          Alcotest.test_case "adaptive threshold raises on live suspects"
            `Quick test_adaptive_threshold_raises;
          Alcotest.test_case "adaptive threshold stays put on garbage" `Quick
            test_adaptive_does_not_raise_on_garbage;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "missing iorefs read as garbage" `Quick
            test_call_on_missing_ioref_returns_garbage;
          Alcotest.test_case "flagged inrefs read as garbage" `Quick
            test_flagged_inref_reads_as_garbage;
          Alcotest.test_case "visited TTL cleanup and retry" `Quick
            test_visited_ttl_cleanup_allows_retry;
          Alcotest.test_case "trace statistics accounting" `Quick
            test_trace_stats_accounting;
        ] );
    ]
