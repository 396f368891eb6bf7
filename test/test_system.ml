(* End-to-end system tests: randomized mutator churn under a running
   collector with the oracle asserting safety at every sweep, then
   completeness once mutation stops; plus the hypertext workload from
   the paper's introduction. *)

open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts
open Dgc_core
open Dgc_workload

let cfg ~seed ~n_sites ~windowed ~drop =
  {
    Config.default with
    Config.n_sites;
    seed;
    delta = 3;
    threshold2 = 6;
    threshold_bump = 4;
    trace_interval = Sim_time.of_seconds 10.;
    trace_jitter = Sim_time.of_seconds 1.;
    trace_duration =
      (if windowed then Sim_time.of_seconds 1. else Sim_time.zero);
    latency = Latency.Uniform (Sim_time.of_millis 1., Sim_time.of_millis 20.);
    ext_drop = drop;
    back_call_timeout = Sim_time.of_seconds 3.;
    visited_ttl = Sim_time.of_seconds 8.;
    oracle_checks = true;
  }

(* One full scenario: seed structure, churn for a while (safety asserted
   continuously by the oracle), stop mutation, then require complete
   collection and consistent tables. *)
let churn_scenario ~seed ~windowed ~drop () =
  let c = cfg ~seed ~n_sites:4 ~windowed ~drop in
  let sim = Sim.make ~cfg:c () in
  let eng = sim.Sim.eng in
  let rng = Rng.create ~seed:(seed + 1) in
  ignore
    (Graph_gen.random_graph eng ~rng ~objects_per_site:12 ~out_degree:1.5
       ~remote_frac:0.3 ~root_frac:0.1);
  (* Make sure every site has at least one persistent root so agents
     can always re-anchor. *)
  Array.iter
    (fun s ->
      if Heap.persistent_roots s.Site.heap = [] then
        ignore (Builder.root_obj eng s.Site.id))
    (Engine.sites eng)
  [@warning "-26"];
  let churn =
    Churn.start sim ~rng:(Rng.create ~seed:(seed + 2)) ~agents:3
      ~mean_op_gap:(Sim_time.of_millis 500.)
  in
  Sim.start sim;
  (* Mutate under collection for a stretch; oracle checks run at every
     sweep and raise on any unsafe free. *)
  Sim.run_for sim (Sim_time.of_minutes 4.);
  Alcotest.(check bool) "churn performed work" true (Churn.ops_done churn > 50);
  (* Each site's first trace misses its root memo; mutator writes
     between traces must cause more. *)
  let _, misses = Collector.root_memo_stats sim.Sim.col in
  Alcotest.(check bool) "mutator writes miss the root memo" true
    (misses > Array.length (Engine.sites eng));
  Churn.stop churn;
  (* Let in-flight operations land, then demand completeness. *)
  Sim.run_for sim (Sim_time.of_seconds 30.);
  let ok = Sim.collect_all sim ~max_rounds:60 () in
  if not ok then
    Alcotest.failf "uncollected garbage after churn: %d objects"
      (Dgc_oracle.Oracle.garbage_count eng);
  Alcotest.(check (list string)) "tables consistent at quiescence" []
    (Dgc_oracle.Oracle.table_violations eng)

let test_churn_atomic () = churn_scenario ~seed:100 ~windowed:false ~drop:0. ()
let test_churn_windowed () = churn_scenario ~seed:200 ~windowed:true ~drop:0. ()
let test_churn_lossy () = churn_scenario ~seed:300 ~windowed:true ~drop:0.2 ()

let prop_churn_many_seeds =
  QCheck2.Test.make ~name:"churn is safe and complete across seeds" ~count:8
    ~print:string_of_int
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      churn_scenario ~seed ~windowed:(seed mod 2 = 0)
        ~drop:(if seed mod 3 = 0 then 0.1 else 0.)
        ();
      true)

(* --- hypertext (the intro's motivating workload) ----------------------- *)

let test_hypertext_cycles_collected () =
  (* Cross links can accidentally root every document; scan seeds for a
     configuration that leaves real cyclic garbage. *)
  let rec build seed =
    if seed > 40 then Alcotest.fail "no seed produced garbage"
    else begin
      let c = cfg ~seed ~n_sites:5 ~windowed:false ~drop:0. in
      let sim = Sim.make ~cfg:c () in
      let rng = Rng.create ~seed:(seed + 1) in
      let garbage =
        Graph_gen.hypertext sim.Sim.eng ~rng ~docs_per_site:3 ~pages_per_doc:4
          ~cross_links:15 ~rooted_frac:0.5
      in
      if garbage = [] then build (seed + 1) else (sim, garbage)
    end
  in
  let sim, garbage = build 7 in
  let eng = sim.Sim.eng in
  Alcotest.(check bool) "workload produced cyclic garbage" true
    (List.length garbage > 0);
  Alcotest.(check int) "oracle agrees on garbage count"
    (List.length garbage)
    (Dgc_oracle.Oracle.garbage_count eng);
  Sim.start sim;
  let ok = Sim.collect_all sim ~max_rounds:60 () in
  Alcotest.(check bool) "all hypertext garbage collected" true ok;
  (* live documents intact *)
  Alcotest.(check (list string)) "tables consistent" []
    (Dgc_oracle.Oracle.table_violations eng)

(* --- locality under load ------------------------------------------------ *)

let test_trace_participants_within_garbage_sites () =
  (* For every Garbage-outcome back trace, the participant set is
     contained in the sites that owned garbage when the trace ran. With
     a static garbage set, that is exactly the cycle's sites. *)
  let c = cfg ~seed:11 ~n_sites:6 ~windowed:false ~drop:0. in
  let sim = Sim.make ~cfg:c () in
  let eng = sim.Sim.eng in
  (* Cycle on sites 1-3 only; sites 0, 4, 5 hold unrelated live data. *)
  let cycle_sites = [ Site_id.of_int 1; Site_id.of_int 2; Site_id.of_int 3 ] in
  ignore (Graph_gen.ring eng ~sites:cycle_sites ~per_site:2 ~rooted:false);
  ignore
    (Graph_gen.ring eng
       ~sites:[ Site_id.of_int 0; Site_id.of_int 4; Site_id.of_int 5 ]
       ~per_site:2 ~rooted:true);
  Sim.start sim;
  let ok = Sim.collect_all sim ~max_rounds:40 () in
  Alcotest.(check bool) "collected" true ok;
  let allowed = Site_id.set_of_list cycle_sites in
  List.iter
    (fun (_, st) ->
      match st.Back_trace.ts_outcome with
      | Some (Verdict.Garbage, _) ->
          Alcotest.(check bool) "participants within the cycle" true
            (Site_id.Set.subset st.Back_trace.ts_participants allowed)
      | _ -> ())
    (Back_trace.stats (Collector.back sim.Sim.col))

(* Verdict safety as a direct property: whatever traces conclude, the
   set of flagged inrefs only ever names oracle-certified garbage. *)
let prop_flagged_only_garbage =
  QCheck2.Test.make ~name:"flagged inrefs are oracle garbage" ~count:25
    ~print:string_of_int
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let c = cfg ~seed ~n_sites:4 ~windowed:false ~drop:0. in
      let sim = Sim.make ~cfg:c () in
      let eng = sim.Sim.eng in
      ignore
        (Graph_gen.random_graph eng ~rng:(Rng.create ~seed:(seed + 1))
           ~objects_per_site:10 ~out_degree:1.6 ~remote_frac:0.4
           ~root_frac:0.12);
      Scenario.settle sim ~rounds:9;
      let garbage = Dgc_oracle.Oracle.garbage_set eng in
      (* Fire a trace from every suspected outref in the system. *)
      Array.iter
        (fun st ->
          Tables.iter_outrefs st.Site.tables (fun o ->
              if not (Ioref.outref_clean o) then
                ignore
                  (Collector.start_back_trace sim.Sim.col st.Site.id
                     o.Ioref.or_target)))
        (Engine.sites eng);
      Sim.run_for sim (Sim_time.of_seconds 30.);
      let ok = ref true in
      Array.iter
        (fun st ->
          Tables.iter_inrefs st.Site.tables (fun ir ->
              if
                ir.Ioref.ir_flagged
                && not (Oid.Set.mem ir.Ioref.ir_target garbage)
              then ok := false))
        (Engine.sites eng);
      !ok)

(* --- long-lived accumulation ------------------------------------------- *)

let test_repeated_garbage_waves () =
  (* Cycles created in waves keep being collected; storage does not
     accumulate (the paper's long-lived-system motivation). *)
  let c = cfg ~seed:21 ~n_sites:3 ~windowed:false ~drop:0. in
  let sim = Sim.make ~cfg:c () in
  let eng = sim.Sim.eng in
  let sites = [ Site_id.of_int 0; Site_id.of_int 1; Site_id.of_int 2 ] in
  Sim.start sim;
  for wave = 1 to 5 do
    ignore (Graph_gen.ring eng ~sites ~per_site:2 ~rooted:false);
    let ok = Sim.collect_all sim ~max_rounds:40 () in
    Alcotest.(check bool)
      (Format.asprintf "wave %d collected" wave)
      true ok
  done;
  let total_objects =
    Array.fold_left
      (fun acc s -> acc + Heap.object_count s.Site.heap)
      0 (Engine.sites eng)
  in
  Alcotest.(check int) "no residual storage" 0 total_objects

(* --- soak ---------------------------------------------------------------- *)

let test_soak () =
  (* A long-lived 8-site system: half an hour of simulated time with
     continuous churn, periodic faults and windowed traces, the oracle
     watching every sweep. The paper's long-lived-system motivation,
     end to end. *)
  let c =
    {
      (cfg ~seed:4242 ~n_sites:8 ~windowed:true ~drop:0.05) with
      Config.trace_interval = Sim_time.of_seconds 20.;
    }
  in
  let sim = Sim.make ~cfg:c () in
  let eng = sim.Sim.eng in
  let rng = Rng.create ~seed:4243 in
  Array.iter (fun st -> ignore (Builder.root_obj eng st.Site.id)) (Engine.sites eng);
  ignore
    (Graph_gen.hypertext eng ~rng ~docs_per_site:2 ~pages_per_doc:3
       ~cross_links:20 ~rooted_frac:0.6);
  let churn =
    Churn.start sim ~rng:(Rng.create ~seed:4244) ~agents:5
      ~mean_op_gap:(Sim_time.of_millis 250.)
  in
  Sim.start sim;
  for slot = 1 to 15 do
    Sim.run_for sim (Sim_time.of_minutes 2.);
    (* periodic fault churn *)
    (match slot mod 5 with
    | 1 -> Engine.crash eng (Site_id.of_int (slot mod 8))
    | 2 -> Engine.recover eng (Site_id.of_int ((slot - 1) mod 8))
    | 3 ->
        Engine.partition eng
          [ List.init 4 Site_id.of_int;
            List.init 4 (fun i -> Site_id.of_int (i + 4)) ]
    | 4 -> Engine.heal eng
    | _ -> ())
  done;
  (* restore and converge *)
  Engine.heal eng;
  Array.iteri
    (fun i st -> if st.Site.crashed then Engine.recover eng (Site_id.of_int i))
    (Engine.sites eng);
  Churn.stop churn;
  Sim.run_for sim (Sim_time.of_minutes 2.);
  Alcotest.(check bool) "plenty of work happened" true
    (Churn.ops_done churn > 2000);
  let ok = Sim.collect_all sim ~max_rounds:80 () in
  if not ok then
    Alcotest.failf "soak left %d garbage objects"
      (Dgc_oracle.Oracle.garbage_count eng);
  Alcotest.(check (list string)) "tables consistent" []
    (Dgc_oracle.Oracle.table_violations eng);
  Scenario.settle sim ~rounds:6;
  Alcotest.(check (list string)) "invariants hold" []
    (Dgc_core.Invariants.strings (Dgc_core.Invariants.check_all eng))

let () =
  Alcotest.run "system"
    [
      ( "churn",
        [
          Alcotest.test_case "atomic traces" `Slow test_churn_atomic;
          Alcotest.test_case "windowed traces" `Slow test_churn_windowed;
          Alcotest.test_case "20% message loss" `Slow test_churn_lossy;
          QCheck_alcotest.to_alcotest ~long:true prop_churn_many_seeds;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "hypertext cycles" `Slow
            test_hypertext_cycles_collected;
          Alcotest.test_case "locality of garbage traces" `Quick
            test_trace_participants_within_garbage_sites;
          QCheck_alcotest.to_alcotest prop_flagged_only_garbage;
          Alcotest.test_case "repeated waves, no accumulation" `Slow
            test_repeated_garbage_waves;
        ] );
      ("soak", [ Alcotest.test_case "30-minute fault-ridden soak" `Slow test_soak ]);
    ]
