(* The §6 invariants, checked as predicates over whole-system state:
   they hold after settling on every workload (including after racing
   mutators quiesce), and the checker detects seeded corruption. *)

open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts
open Dgc_core
open Dgc_workload

let s k = Site_id.of_int k

let cfg n seed =
  {
    Config.default with
    Config.n_sites = n;
    seed;
    delta = 3;
    threshold2 = 20 (* keep suspects alive long enough to inspect *);
    trace_interval = Sim_time.of_seconds 10.;
    trace_duration = Sim_time.zero;
  }

let check_clean eng label =
  match Invariants.strings (Invariants.check_all eng) with
  | [] -> ()
  | vs ->
      Alcotest.failf "%s: %d invariant violations, first: %s" label
        (List.length vs) (List.hd vs)

let test_holds_on_settled_workloads () =
  let workloads =
    [
      ( "garbage ring",
        fun eng ->
          ignore (Graph_gen.ring eng ~sites:[ s 0; s 1; s 2 ] ~per_site:2 ~rooted:false) );
      ( "live ring",
        fun eng ->
          ignore (Graph_gen.ring eng ~sites:[ s 0; s 1; s 2 ] ~per_site:2 ~rooted:true) );
      ( "clique",
        fun eng ->
          ignore (Graph_gen.clique eng ~sites:[ s 0; s 1; s 2; s 3 ] ~rooted:false) );
      ( "hypertext",
        fun eng ->
          ignore
            (Graph_gen.hypertext eng ~rng:(Rng.create ~seed:3) ~docs_per_site:2
               ~pages_per_doc:3 ~cross_links:10 ~rooted_frac:0.5) );
      ( "random",
        fun eng ->
          ignore
            (Graph_gen.random_graph eng ~rng:(Rng.create ~seed:4)
               ~objects_per_site:10 ~out_degree:1.5 ~remote_frac:0.4
               ~root_frac:0.15) );
    ]
  in
  List.iter
    (fun (name, build) ->
      let sim = Sim.make ~cfg:(cfg 4 1) () in
      build sim.Sim.eng;
      Scenario.settle sim ~rounds:10;
      check_clean sim.Sim.eng name)
    workloads

let test_holds_after_mutation_settles () =
  (* The fig5 mutation race, then enough rounds to re-converge: the
     invariants must be restored. *)
  let c = { (cfg 4 1) with Config.threshold2 = 6 } in
  let f, _, violation = Scenario.fig5_race ~cfg:c () in
  Alcotest.(check (option string)) "race safe" None violation;
  let sim = f.Scenario.f5_sim in
  Scenario.settle sim ~rounds:10;
  check_clean sim.Sim.eng "after fig5 race"

let test_holds_during_churn_pauses () =
  let c = { (cfg 4 7) with Config.threshold2 = 8 } in
  let sim = Sim.make ~cfg:c () in
  let eng = sim.Sim.eng in
  Array.iter (fun st -> ignore (Builder.root_obj eng st.Site.id)) (Engine.sites eng);
  ignore
    (Graph_gen.random_graph eng ~rng:(Rng.create ~seed:8) ~objects_per_site:8
       ~out_degree:1.2 ~remote_frac:0.3 ~root_frac:0.1);
  Sim.start sim;
  for burst = 1 to 3 do
    let churn =
      Churn.start sim ~rng:(Rng.create ~seed:(10 + burst)) ~agents:2
        ~mean_op_gap:(Sim_time.of_millis 300.)
    in
    Sim.run_for sim (Sim_time.of_minutes 1.);
    Churn.stop churn;
    Sim.run_for sim (Sim_time.of_seconds 20.);
    (* Settle the distances and back information, then audit. *)
    Scenario.settle sim ~rounds:8;
    check_clean eng (Printf.sprintf "after churn burst %d" burst)
  done

let test_detects_missing_inset_entry () =
  let sim = Sim.make ~cfg:(cfg 3 1) () in
  let eng = sim.Sim.eng in
  ignore (Graph_gen.ring eng ~sites:[ s 0; s 1; s 2 ] ~per_site:2 ~rooted:false);
  Scenario.settle sim ~rounds:8;
  (* Corrupt: blank out a suspected outref's inset. *)
  let corrupted = ref false in
  Array.iter
    (fun st ->
      Tables.iter_outrefs st.Site.tables (fun o ->
          if (not !corrupted) && not (Ioref.outref_clean o) then begin
            o.Ioref.or_inset <- [];
            corrupted := true
          end))
    (Engine.sites eng);
  Alcotest.(check bool) "corrupted something" true !corrupted;
  Alcotest.(check bool) "local safety violation detected" true
    (Invariants.local_safety eng <> [])

let test_detects_clean_inref_in_inset () =
  let sim = Sim.make ~cfg:(cfg 3 1) () in
  let eng = sim.Sim.eng in
  ignore (Graph_gen.ring eng ~sites:[ s 0; s 1; s 2 ] ~per_site:2 ~rooted:false);
  (* A clean inref to smuggle into an inset. *)
  let root = Builder.root_obj eng (s 0) in
  let live = Builder.obj eng (s 1) in
  Builder.link eng ~src:root ~dst:live;
  Scenario.settle sim ~rounds:8;
  let corrupted = ref false in
  Tables.iter_outrefs (Engine.site eng (s 1)).Site.tables (fun o ->
      if (not !corrupted) && not (Ioref.outref_clean o) then begin
        o.Ioref.or_inset <- live :: o.Ioref.or_inset;
        corrupted := true
      end);
  Alcotest.(check bool) "corrupted something" true !corrupted;
  Alcotest.(check bool) "auxiliary violation detected" true
    (Invariants.auxiliary eng <> [])

let test_detects_missing_source () =
  let sim = Sim.make ~cfg:(cfg 3 1) () in
  let eng = sim.Sim.eng in
  let objs = Graph_gen.ring eng ~sites:[ s 0; s 1; s 2 ] ~per_site:1 ~rooted:false in
  Scenario.settle sim ~rounds:8;
  (match objs with
  | o :: _ -> (
      let tables = (Engine.site eng (Oid.site o)).Site.tables in
      match Tables.find_inref tables o with
      | Some ir ->
          List.iter
            (fun site -> Tables.remove_source tables ir site)
            (Ioref.source_sites ir)
      | None -> Alcotest.fail "inref missing")
  | [] -> Alcotest.fail "no objects");
  Alcotest.(check bool) "remote safety violation detected" true
    (Invariants.remote_safety eng <> [])

let test_distance_sanity_on_live_graphs () =
  let sim = Sim.make ~cfg:(cfg 4 1) () in
  let eng = sim.Sim.eng in
  ignore
    (Graph_gen.chain eng ~sites:[ s 0; s 1; s 2; s 3 ] ~per_site:2 ~rooted:true);
  ignore (Graph_gen.ring eng ~sites:[ s 1; s 2 ] ~per_site:1 ~rooted:true);
  Scenario.settle sim ~rounds:10;
  Alcotest.(check (list string)) "estimates conservative" []
    (Invariants.strings (Invariants.distance_sanity eng))

let () =
  Alcotest.run "invariants"
    [
      ( "hold",
        [
          Alcotest.test_case "on settled workloads" `Quick
            test_holds_on_settled_workloads;
          Alcotest.test_case "after the fig5 race settles" `Quick
            test_holds_after_mutation_settles;
          Alcotest.test_case "between churn bursts" `Slow
            test_holds_during_churn_pauses;
          Alcotest.test_case "distance estimates conservative" `Quick
            test_distance_sanity_on_live_graphs;
        ] );
      ( "detect",
        [
          Alcotest.test_case "missing inset entry" `Quick
            test_detects_missing_inset_entry;
          Alcotest.test_case "clean inref in an inset" `Quick
            test_detects_clean_inref_in_inset;
          Alcotest.test_case "missing source" `Quick test_detects_missing_source;
        ] );
    ]
