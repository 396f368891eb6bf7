(* Baseline collectors (§7): global tracing, Hughes timestamps, group
   tracing and migration — each collects inter-site cycles, and each
   exhibits the weakness the paper attributes to it. *)

open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts
open Dgc_core
open Dgc_workload
open Dgc_baselines

let s k = Site_id.of_int k

let cfg n =
  {
    Config.default with
    Config.n_sites = n;
    delta = 3;
    threshold2 = 6;
    trace_interval = Sim_time.of_seconds 10.;
    trace_jitter = Sim_time.of_seconds 1.;
    trace_duration = Sim_time.zero;
    latency = Latency.Uniform (Sim_time.of_millis 1., Sim_time.of_millis 10.);
    oracle_checks = true;
  }

let run eng secs = Engine.run_for eng (Sim_time.of_seconds secs)

let ring_garbage eng ~span ~per_site =
  let sites = List.init span s in
  Graph_gen.ring eng ~sites ~per_site ~rooted:false

let live_ring eng ~span ~per_site =
  let sites = List.init span s in
  Graph_gen.ring eng ~sites ~per_site ~rooted:true

(* --- global trace -------------------------------------------------------- *)

let test_global_collects_cycle () =
  let eng = Engine.create (cfg 3) in
  let gt = Global_trace.install eng in
  ignore (ring_garbage eng ~span:3 ~per_site:2);
  ignore (live_ring eng ~span:3 ~per_site:2);
  let done_ = ref None in
  Global_trace.collect gt
    ~on_done:(fun ~freed ~rounds -> done_ := Some (freed, rounds))
    ();
  run eng 60.;
  (match !done_ with
  | Some (freed, rounds) ->
      Alcotest.(check int) "freed exactly the cycle" 6 freed;
      Alcotest.(check bool) "took a few rounds" true (rounds >= 2)
  | None -> Alcotest.fail "global collection did not finish");
  Alcotest.(check int) "no garbage left" 0 (Dgc_oracle.Oracle.garbage_count eng)

let test_global_stalls_on_crash () =
  let eng = Engine.create (cfg 3) in
  let gt = Global_trace.install eng in
  (* The cycle spans sites 0 and 1 only; site 2 is crashed and holds
     none of it — yet the global trace cannot finish. *)
  ignore
    (Graph_gen.ring eng ~sites:[ s 0; s 1 ] ~per_site:1 ~rooted:false);
  Engine.crash eng (s 2);
  let done_ = ref false in
  Global_trace.collect gt ~on_done:(fun ~freed:_ ~rounds:_ -> done_ := true) ();
  run eng 300.;
  Alcotest.(check bool) "stalled" false !done_;
  Alcotest.(check bool) "still running" true (Global_trace.running gt);
  Alcotest.(check bool) "garbage uncollected" true
    (Dgc_oracle.Oracle.garbage_count eng > 0)

(* --- Hughes --------------------------------------------------------------- *)

let test_hughes_collects_cycle () =
  let eng = Engine.create (cfg 3) in
  ignore (ring_garbage eng ~span:3 ~per_site:2);
  ignore (live_ring eng ~span:3 ~per_site:2);
  let h = Hughes.install eng ~depth:(Dgc_oracle.Oracle.max_distance eng) in
  Engine.start_gc_schedule eng;
  (* Trace for a while, run threshold rounds periodically. *)
  for _ = 1 to 30 do
    run eng 15.;
    Hughes.run_threshold_round h ()
  done;
  run eng 60.;
  Alcotest.(check bool) "threshold advanced" true (Hughes.threshold h > 0.);
  Alcotest.(check int) "cycle collected, live ring intact" 0
    (Dgc_oracle.Oracle.garbage_count eng);
  let live_objects =
    Array.fold_left
      (fun acc st -> acc + Dgc_heap.Heap.object_count st.Site.heap)
      0 (Engine.sites eng)
  in
  Alcotest.(check int) "live ring plus its root survive" 7 live_objects

let test_hughes_crashed_site_holds_threshold () =
  let eng = Engine.create (cfg 3) in
  ignore (Graph_gen.ring eng ~sites:[ s 0; s 1 ] ~per_site:1 ~rooted:false);
  let h = Hughes.install eng ~depth:(Dgc_oracle.Oracle.max_distance eng) in
  (* Site 2 never traces: it crashes immediately. Its last-trace time
     stays 0, pinning the threshold at -slack. *)
  Engine.crash eng (s 2);
  Engine.start_gc_schedule eng;
  for _ = 1 to 20 do
    run eng 15.;
    Hughes.run_threshold_round h ()
  done;
  Alcotest.(check (float 1e-9)) "threshold held down" 0. (Hughes.threshold h);
  Alcotest.(check bool) "cycle uncollected" true
    (Dgc_oracle.Oracle.garbage_count eng > 0);
  (* Note the contrast with back tracing: the crashed site holds no
     part of the cycle, yet blocks its collection system-wide. *)
  Engine.recover eng (s 2);
  for _ = 1 to 20 do
    run eng 15.;
    Hughes.run_threshold_round h ()
  done;
  Alcotest.(check int) "collected after recovery" 0
    (Dgc_oracle.Oracle.garbage_count eng)

(* --- group tracing ---------------------------------------------------------- *)

let test_group_collects_cycle () =
  let eng = Engine.create (cfg 4) in
  let g = Group_trace.install eng ~max_group:8 in
  ignore (ring_garbage eng ~span:3 ~per_site:2);
  ignore (live_ring eng ~span:3 ~per_site:1);
  Engine.start_gc_schedule eng;
  run eng 600.;
  Alcotest.(check bool) "a group formed" true (Group_trace.groups_formed g >= 1);
  Alcotest.(check int) "cycle collected" 0
    (Dgc_oracle.Oracle.garbage_count eng);
  Alcotest.(check bool) "group spans at least the cycle" true
    (Group_trace.last_group_size g >= 3)

let test_group_cap_prevents_collection () =
  let eng = Engine.create (cfg 5) in
  let g = Group_trace.install eng ~max_group:2 in
  (* The cycle spans 5 sites; groups are capped at 2 members. *)
  ignore (ring_garbage eng ~span:5 ~per_site:1);
  Engine.start_gc_schedule eng;
  run eng 600.;
  Alcotest.(check bool) "cycle survives capped groups" true
    (Dgc_oracle.Oracle.garbage_count eng > 0);
  ignore g

let test_group_simultaneous_initiation_aborts () =
  (* Two cycles share site 1: sites 0 and 2 initiate at the same
     instant, and both probe the shared site. The busy refusal aborts
     one formation — the paper's simultaneity criticism — and the
     released sites let a retry collect everything. *)
  let c = { (cfg 3) with Config.trace_jitter = Sim_time.zero } in
  let eng = Engine.create c in
  let g = Group_trace.install eng ~max_group:8 in
  ignore (Graph_gen.ring eng ~sites:[ s 0; s 1 ] ~per_site:1 ~rooted:false);
  ignore (Graph_gen.ring eng ~sites:[ s 1; s 2 ] ~per_site:1 ~rooted:false);
  (* Converge distances so both sides have eligible seeds, without the
     automatic initiator racing ahead. *)
  let col = Group_trace.collector g in
  Dgc_core.Collector.set_after_trace col (fun _ -> ());
  for _ = 1 to 9 do
    Dgc_core.Collector.force_local_trace_all col;
    run eng 1.
  done;
  Group_trace.try_initiate g (s 0);
  Group_trace.try_initiate g (s 2);
  run eng 60.;
  Alcotest.(check bool) "one formation aborted on the busy site" true
    (Group_trace.groups_aborted g >= 1);
  (* Retries (the periodic schedule) eventually collect both cycles. *)
  Dgc_core.Collector.set_after_trace col (fun site ->
      Group_trace.try_initiate g site);
  Engine.start_gc_schedule eng;
  run eng 900.;
  Alcotest.(check int) "both cycles collected by retries" 0
    (Dgc_oracle.Oracle.garbage_count eng)

(* --- migration --------------------------------------------------------------- *)

let test_migration_collects_ring () =
  let eng = Engine.create (cfg 3) in
  let m = Migration.install eng in
  ignore (ring_garbage eng ~span:3 ~per_site:2);
  ignore (live_ring eng ~span:3 ~per_site:2);
  Engine.start_gc_schedule eng;
  run eng 1200.;
  Alcotest.(check int) "ring collected by convergence" 0
    (Dgc_oracle.Oracle.garbage_count eng);
  Alcotest.(check bool) "objects actually moved" true (Migration.migrations m > 0);
  Alcotest.(check bool) "bytes were paid" true (Migration.bytes_moved m > 0)

let test_migration_skips_multi_holder () =
  let eng = Engine.create (cfg 3) in
  let m = Migration.install eng in
  (* A clique: every object held from two sites — single-holder
     migration cannot converge it. *)
  ignore (Graph_gen.clique eng ~sites:[ s 0; s 1; s 2 ] ~rooted:false);
  Engine.start_gc_schedule eng;
  run eng 600.;
  Alcotest.(check bool) "multi-holder suspects skipped" true
    (Migration.skipped_multi_holder m > 0);
  Alcotest.(check bool) "clique uncollected by this baseline" true
    (Dgc_oracle.Oracle.garbage_count eng > 0)

(* §4.7 deferral batches the migrations. Every reference a migration
   carries — queued for its batch or on the wire inside it — must be an
   oracle root until the message lands or is dropped. *)
let test_migration_batched_refs_in_flight () =
  let c = { (cfg 3) with Config.defer_interval = Sim_time.of_millis 100. } in
  let eng = Engine.create c in
  let m = Migration.install eng in
  ignore (ring_garbage eng ~span:3 ~per_site:2);
  let undelivered = Hashtbl.create 8 in
  let checks = ref 0 in
  Engine.subscribe eng (function
    | Engine.Send { id; payload = Protocol.Ext _ as p; _ } -> (
        match Protocol.refs_carried p with
        | [] -> ()
        | refs -> Hashtbl.replace undelivered id refs)
    | Engine.Deliver { id; _ } | Engine.Drop { id; _ } ->
        Hashtbl.remove undelivered id
    | Engine.Step when Hashtbl.length undelivered > 0 ->
        let roots = Engine.in_flight_refs eng in
        Hashtbl.iter
          (fun id refs ->
            List.iter
              (fun r ->
                if not (List.exists (Oid.equal r) roots) then
                  Alcotest.failf "message %d: %a is carried but not in flight"
                    id Oid.pp r)
              refs)
          undelivered;
        incr checks
    | _ -> ());
  Engine.start_gc_schedule eng;
  run eng 1200.;
  Alcotest.(check bool) "migrations went out batched" true
    (Migration.migrations m > 0
    && Metrics.get (Engine.metrics eng) "msg.batches" > 0);
  Alcotest.(check bool) "checked while carried" true (!checks > 0);
  Alcotest.(check int) "ring collected" 0
    (Dgc_oracle.Oracle.garbage_count eng)

(* A live object migrates too: a rooted chain deeper than Δ2 has
   suspected inrefs. The move keeps every object, and the source copy
   is freed (through the oracle guard) only once the destination acks. *)
let test_migration_moves_live_chain () =
  let c = { (cfg 4) with Config.delta = 1; threshold2 = 2 } in
  let eng = Engine.create c in
  let m = Migration.install eng in
  ignore
    (Graph_gen.chain eng ~sites:[ s 0; s 1; s 2; s 3 ] ~per_site:1
       ~rooted:true);
  let count () =
    Array.fold_left
      (fun acc st -> acc + Heap.object_count st.Site.heap)
      0 (Engine.sites eng)
  in
  let before = count () in
  Engine.start_gc_schedule eng;
  run eng 300.;
  Alcotest.(check bool) "a live object moved" true (Migration.migrations m > 0);
  Alcotest.(check int) "object count kept" before (count ());
  Alcotest.(check int) "no garbage" 0 (Dgc_oracle.Oracle.garbage_count eng)

(* The same clique IS collected by back tracing — the core scheme
   handles what the restricted migration baseline cannot. *)
let test_back_tracing_handles_clique () =
  let sim = Sim.make ~cfg:(cfg 3) () in
  let eng = sim.Sim.eng in
  ignore (Graph_gen.clique eng ~sites:[ s 0; s 1; s 2 ] ~rooted:false);
  Sim.start sim;
  let ok = Sim.collect_all sim ~max_rounds:60 () in
  Alcotest.(check bool) "clique collected by back tracing" true ok

(* --- every collector against the oracle ---------------------------------- *)

(* The hypertext comparison run under uniform latency, with the oracle
   at every sweep: a live free raises, and no object live at 1 s may be
   lost. With [ext_drop] the marking baselines stall rather than sweep,
   and migration re-sends; Hughes refuses loss (below). Returns the
   garbage cycles collected over all seeds. *)
let oracle_block collector ~ext_drop ?(ext_dup = 0.) seeds =
  List.fold_left
    (fun collected seed ->
      let cfg = { (Comparison.config ~seed ~ext_drop) with Config.ext_dup } in
      let o = Comparison.hypertext collector cfg in
      if o.Comparison.lost <> 0 then
        Alcotest.failf
          "%s, seed %d, ext_drop %.1f, ext_dup %.1f: %d live objects lost"
          (Comparison.name collector) seed ext_drop ext_dup o.Comparison.lost;
      collected + o.Comparison.collected)
    0 seeds

let oracle_seeds = List.init 40 (fun i -> i + 1)

(* A duplicated collector message changes nothing: every collector
   collects as many cycles as without duplication. *)
let dup_case collector =
  Alcotest.test_case
    (Printf.sprintf "%s, ext_dup 0.2, seeds 1-40" (Comparison.name collector))
    `Quick
    (fun () ->
      let plain = oracle_block collector ~ext_drop:0. oracle_seeds in
      Alcotest.(check int) "cycles collected as without duplication" plain
        (oracle_block collector ~ext_drop:0. ~ext_dup:0.2 oracle_seeds))

let oracle_cases =
  List.concat_map
    (fun collector ->
      let case ~ext_drop =
        Alcotest.test_case
          (Printf.sprintf "%s, ext_drop %.1f, seeds 1-40"
             (Comparison.name collector) ext_drop)
          `Quick
          (fun () -> ignore (oracle_block collector ~ext_drop oracle_seeds))
      in
      if collector = Comparison.Hughes then
        [ case ~ext_drop:0.; dup_case collector ]
      else [ case ~ext_drop:0.; case ~ext_drop:0.2; dup_case collector ])
    Comparison.collectors

let test_hughes_refuses_loss () =
  let eng = Engine.create { (cfg 3) with Config.ext_drop = 0.1 } in
  Alcotest.check_raises "install refuses ext_drop"
    (Invalid_argument "Hughes.install: timestamps need loss-free delivery")
    (fun () -> ignore (Hughes.install eng ~depth:1))

(* A seeded wrong free: flagging a live object's inref makes plain
   local tracing drop it as a root. The guard must stop the free. *)
let test_guard_stops_wrong_local_free () =
  let eng = Engine.create (cfg 2) in
  Local_gc.install eng;
  let holder = Builder.root_obj eng (s 0) in
  let target = Builder.obj eng (s 1) in
  Builder.link eng ~src:holder ~dst:target;
  let site = Engine.site eng (s 1) in
  (match Tables.find_inref site.Site.tables target with
  | Some ir -> Tables.flag_inref site.Site.tables ir
  | None -> Alcotest.fail "inref missing");
  (match Local_gc.run eng site with
  | () -> Alcotest.fail "the live object was freed unchecked"
  | exception Dgc_oracle.Oracle.Safety_violation _ -> ());
  Alcotest.(check bool) "object kept" true (Heap.mem site.Site.heap target)

let () =
  Alcotest.run "baselines"
    [
      ( "global",
        [
          Alcotest.test_case "collects cycles" `Quick test_global_collects_cycle;
          Alcotest.test_case "stalls on any crash" `Quick
            test_global_stalls_on_crash;
        ] );
      ( "hughes",
        [
          Alcotest.test_case "collects cycles" `Quick test_hughes_collects_cycle;
          Alcotest.test_case "one site holds the threshold" `Quick
            test_hughes_crashed_site_holds_threshold;
          Alcotest.test_case "refuses message loss" `Quick
            test_hughes_refuses_loss;
        ] );
      ( "group",
        [
          Alcotest.test_case "collects cycles" `Quick test_group_collects_cycle;
          Alcotest.test_case "capped groups never collect" `Quick
            test_group_cap_prevents_collection;
          Alcotest.test_case "simultaneous initiation aborts" `Quick
            test_group_simultaneous_initiation_aborts;
        ] );
      ( "migration",
        [
          Alcotest.test_case "converges rings" `Quick
            test_migration_collects_ring;
          Alcotest.test_case "skips multi-holder suspects" `Quick
            test_migration_skips_multi_holder;
          Alcotest.test_case "batched references are in flight" `Quick
            test_migration_batched_refs_in_flight;
          Alcotest.test_case "a live chain moves, nothing lost" `Quick
            test_migration_moves_live_chain;
          Alcotest.test_case "back tracing handles the clique" `Quick
            test_back_tracing_handles_clique;
        ] );
      ("oracle", oracle_cases);
      ( "guard",
        [
          Alcotest.test_case "stops a wrong local free" `Quick
            test_guard_stops_wrong_local_free;
        ] );
    ]
