(* The dgc-check analysis layer: conformance automata, the schedule
   explorer, schedule shrinking, and the seeded-bug regression — a
   broken transfer barrier must be caught and the violating schedule
   shrunk to a small reproducer. *)

open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts
open Dgc_analysis

let s = Site_id.of_int
let oid site index = Oid.make ~site:(s site) ~index

(* --- conformance automata --------------------------------------------- *)

let deliver mon ~src ~dst payload =
  Conformance.hook mon
    (Engine.Deliver { id = 0; src = s src; dst = s dst; payload })

let rules vs = List.map (fun v -> v.Conformance.c_rule) vs

let test_conformance_clean_pair () =
  let mon = Conformance.create () in
  deliver mon ~src:0 ~dst:1 (Protocol.Move { agent = 1; refs = []; token = 7 });
  deliver mon ~src:1 ~dst:0 (Protocol.Move_ack { token = 7 });
  Alcotest.(check (list string)) "clean" [] (rules (Conformance.finish mon))

let test_conformance_ack_without_move () =
  let mon = Conformance.create () in
  deliver mon ~src:1 ~dst:0 (Protocol.Move_ack { token = 3 });
  Alcotest.(check (list string))
    "orphan ack flagged" [ "ack-after-move" ]
    (rules (Conformance.finish mon))

let test_conformance_unacked_move () =
  let mon = Conformance.create () in
  deliver mon ~src:0 ~dst:1 (Protocol.Move { agent = 1; refs = []; token = 9 });
  Alcotest.(check (list string))
    "unacked move flagged" [ "move-completes" ]
    (rules (Conformance.finish mon))

let test_conformance_misrouted_ack () =
  let mon = Conformance.create () in
  deliver mon ~src:0 ~dst:1 (Protocol.Move { agent = 1; refs = []; token = 4 });
  (* the ack must travel dst -> src of the move; 2 -> 1 does not *)
  deliver mon ~src:2 ~dst:1 (Protocol.Move_ack { token = 4 });
  Alcotest.(check (list string))
    "misrouted ack flagged" [ "ack-routing" ]
    (rules (Conformance.finish mon))

let test_conformance_insert_at_non_owner () =
  let mon = Conformance.create () in
  let r = oid 2 0 in
  (* r lives at site 2; delivering its insert at site 1 is a protocol bug *)
  deliver mon ~src:0 ~dst:1 (Protocol.Insert { r; by = s 0; inc = 1 });
  Alcotest.(check (list string))
    "insert at non-owner flagged"
    [ "insert-at-owner"; "insert-completes" ]
    (rules (Conformance.finish mon))

let test_conformance_insert_pairing () =
  let mon = Conformance.create () in
  let r = oid 2 0 in
  deliver mon ~src:0 ~dst:2 (Protocol.Insert { r; by = s 0; inc = 1 });
  deliver mon ~src:2 ~dst:0 (Protocol.Insert_done { r });
  (* a second done for the same (ref, holder) has nothing to answer *)
  deliver mon ~src:2 ~dst:0 (Protocol.Insert_done { r });
  Alcotest.(check (list string))
    "unpaired insert_done flagged" [ "insert-pairing" ]
    (rules (Conformance.finish mon))

let test_conformance_battery () =
  let report = Conformance.run_battery () in
  Alcotest.(check (list string))
    "battery conformant" []
    (List.map Conformance.violation_to_string report.Conformance.r_violations);
  Alcotest.(check (list string))
    "all payload kinds covered" [] report.Conformance.r_uncovered

(* --- the deviation primitive ------------------------------------------ *)

let test_pop_nth () =
  let q = Event_queue.create ~dummy:"" in
  let at ms = Sim_time.of_millis ms in
  List.iter (fun (t, v) -> Event_queue.push q ~at:(at t) v)
    [ (10., "a"); (20., "b"); (30., "c"); (20., "b2") ];
  (* rank 2 of {a, b, b2, c} is b2 (equal times keep insertion order) *)
  (match Event_queue.pop_nth q 2 with
  | Some (_, v) -> Alcotest.(check string) "rank 2" "b2" v
  | None -> Alcotest.fail "pop_nth returned None");
  (* the skipped events keep their order *)
  let drained = ref [] in
  while not (Event_queue.is_empty q) do
    drained := Event_queue.pop_min q :: !drained
  done;
  Alcotest.(check (list string))
    "remaining order preserved" [ "a"; "b"; "c" ] (List.rev !drained);
  Alcotest.(check (option reject)) "empty" None (Event_queue.pop_nth q 0)

(* --- shrinking --------------------------------------------------------- *)

let test_shrink_synthetic () =
  (* violation iff the schedule still delays step 3 (any rank) *)
  let reproduces sched = List.mem_assoc 3 sched in
  let shrunk, _runs =
    Shrink.minimize ~reproduces [ (1, 2); (3, 2); (5, 1); (9, 2) ]
  in
  Alcotest.(check (list (pair int int)))
    "shrunk to the one load-bearing deviation, rank lowered" [ (3, 1) ] shrunk

let test_shrink_keeps_reproducer () =
  (* violation needs both deviations *)
  let reproduces sched = List.mem (2, 2) sched && List.mem_assoc 6 sched in
  let shrunk, _ =
    Shrink.minimize ~reproduces [ (0, 1); (2, 2); (4, 1); (6, 2); (8, 1) ]
  in
  Alcotest.(check bool) "still reproduces" true (reproduces shrunk);
  Alcotest.(check int) "minimal" 2 (List.length shrunk)

(* --- exploration ------------------------------------------------------- *)

let small_bounds =
  { Explorer.depth_bound = 2; width = 3; max_steps = 200; max_schedules = 40 }

let test_explore_fig1_clean () =
  let r = Explorer.explore ~bounds:small_bounds Sut.fig1 in
  Alcotest.(check bool) "fig1 explores clean" true (Explorer.clean r);
  Alcotest.(check int) "budget spent" small_bounds.Explorer.max_schedules
    r.Explorer.res_schedules

let test_explore_race_stock_clean () =
  let r = Explorer.explore ~bounds:small_bounds Sut.fig5_race in
  Alcotest.(check bool)
    "§6.4 race with barriers on survives exploration" true (Explorer.clean r)

(* The seeded-bug regression: with the transfer barrier disabled the
   explorer must find a §6.1 violation and shrink the schedule to a
   small reproducer that still reproduces on replay. *)
let test_explore_race_broken_detected () =
  let r = Explorer.explore ~bounds:small_bounds Sut.fig5_race_broken in
  match r.Explorer.res_counterexample with
  | None -> Alcotest.fail "seeded transfer-barrier bug not detected"
  | Some cx ->
      Alcotest.(check bool)
        "violation messages present" true
        (cx.Explorer.cx_messages <> []);
      Alcotest.(check bool)
        "shrunk schedule is a small reproducer" true
        (List.length cx.Explorer.cx_shrunk <= 10);
      let replay =
        Explorer.run_schedule Sut.fig5_race_broken
          ~max_steps:small_bounds.Explorer.max_steps cx.Explorer.cx_shrunk
      in
      Alcotest.(check bool)
        "shrunk schedule reproduces on replay" true
        (replay.Explorer.run_violation <> None)

(* --- continuous checking (Check_step) ---------------------------------- *)

let test_check_step_clean_run () =
  (* sanitizer mode: the per-step battery runs after every engine event
     and must stay silent on a stock Figure-1 collection *)
  let cfg =
    {
      Config.default with
      Config.n_sites = 3;
      trace_interval = Sim_time.of_seconds 5.;
      trace_jitter = Sim_time.zero;
      trace_duration = Sim_time.zero;
      check_level = Config.Check_step;
    }
  in
  let f = Dgc_workload.Scenario.fig1 ~cfg () in
  let sim = f.Dgc_workload.Scenario.f1_sim in
  Dgc_core.Sim.start sim;
  Dgc_core.Sim.run_for sim (Sim_time.of_seconds 60.);
  Alcotest.(check (list string))
    "final check also clean" []
    (Dgc_core.Invariants.strings (Dgc_core.Sim.check ~settled:true sim))

let () =
  Alcotest.run "analysis"
    [
      ( "conformance",
        [
          Alcotest.test_case "clean move/ack pair" `Quick
            test_conformance_clean_pair;
          Alcotest.test_case "ack without move" `Quick
            test_conformance_ack_without_move;
          Alcotest.test_case "unacked move" `Quick test_conformance_unacked_move;
          Alcotest.test_case "misrouted ack" `Quick
            test_conformance_misrouted_ack;
          Alcotest.test_case "insert at non-owner" `Quick
            test_conformance_insert_at_non_owner;
          Alcotest.test_case "insert/done pairing" `Quick
            test_conformance_insert_pairing;
          Alcotest.test_case "battery conformant and covering" `Quick
            test_conformance_battery;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "pop_nth deviation primitive" `Quick test_pop_nth;
          Alcotest.test_case "fig1 explores clean" `Quick
            test_explore_fig1_clean;
          Alcotest.test_case "stock race explores clean" `Quick
            test_explore_race_stock_clean;
          Alcotest.test_case "seeded broken barrier detected and shrunk" `Quick
            test_explore_race_broken_detected;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "drops and lowers deviations" `Quick
            test_shrink_synthetic;
          Alcotest.test_case "keeps multi-deviation reproducers" `Quick
            test_shrink_keeps_reproducer;
        ] );
      ( "check-step",
        [
          Alcotest.test_case "sanitizer mode clean on fig1" `Quick
            test_check_step_clean_run;
        ] );
    ]
