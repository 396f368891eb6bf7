(* dgc-san: the vector-clock laws, the sanitize=off identity pin, and
   the dynamic detectors rediscovering both seeded defects through the
   explorer. *)

open Dgc_simcore
open Dgc_rts
open Dgc_workload
open Dgc_chaos
module Json = Dgc_telemetry.Json
module Vclock = Dgc_sanitize.Vclock
module San = Dgc_sanitize.Sanitizer
module Explorer = Dgc_analysis.Explorer
module Sut = Dgc_analysis.Sut

(* --- vector-clock laws ----------------------------------------------------- *)

let clock_gen =
  QCheck2.Gen.(
    list_repeat 4 (int_range 0 20) >|= fun comps -> Vclock.of_list comps)

let clock_print c = Format.asprintf "%a" Vclock.pp c

let prop_join_laws =
  QCheck2.Test.make ~name:"join is a commutative idempotent semilattice"
    ~count:200 ~print:(fun (a, b, c) ->
      Printf.sprintf "%s %s %s" (clock_print a) (clock_print b)
        (clock_print c))
    QCheck2.Gen.(triple clock_gen clock_gen clock_gen)
    (fun (a, b, c) ->
      Vclock.equal (Vclock.merge a b) (Vclock.merge b a)
      && Vclock.equal
           (Vclock.merge a (Vclock.merge b c))
           (Vclock.merge (Vclock.merge a b) c)
      && Vclock.equal (Vclock.merge a a) a
      && Vclock.leq a (Vclock.merge a b)
      && Vclock.leq b (Vclock.merge a b))

let prop_order_laws =
  QCheck2.Test.make ~name:"leq is a partial order; concurrent is its complement"
    ~count:200 ~print:(fun (a, b) ->
      Printf.sprintf "%s %s" (clock_print a) (clock_print b))
    QCheck2.Gen.(pair clock_gen clock_gen)
    (fun (a, b) ->
      Vclock.leq a a
      && (not (Vclock.before a a))
      && Vclock.concurrent a b = Vclock.concurrent b a
      && ((not (Vclock.leq a b && Vclock.leq b a)) || Vclock.equal a b)
      && Vclock.concurrent a b
         = ((not (Vclock.leq a b)) && not (Vclock.leq b a)))

let prop_tick_advances =
  QCheck2.Test.make ~name:"tick is a strictly later local event" ~count:200
    ~print:clock_print clock_gen (fun c ->
      let old = Vclock.copy c in
      Vclock.tick c 2;
      Vclock.before old c)

let test_send_receive_law () =
  (* The piggybacking discipline: the sender ticks and snapshots; the
     receiver joins the snapshot and ticks. Send ≺ receive, and a third
     site that saw neither stays concurrent with both. *)
  let sender = Vclock.create 3 and receiver = Vclock.create 3 in
  Vclock.tick sender 0;
  let snapshot = Vclock.copy sender in
  Vclock.join receiver snapshot;
  Vclock.tick receiver 1;
  Alcotest.(check bool) "send happens-before receive" true
    (Vclock.before snapshot receiver);
  let bystander = Vclock.create 3 in
  Vclock.tick bystander 2;
  Alcotest.(check bool) "bystander concurrent with the receive" true
    (Vclock.concurrent bystander receiver)

let test_roundtrip () =
  let c = Vclock.of_list [ 0; 3; 1; 0 ] in
  Alcotest.(check (list int)) "of_list/to_list" [ 0; 3; 1; 0 ]
    (Vclock.to_list c);
  Alcotest.(check int) "size" 4 (Vclock.size c)

(* --- sanitize=off identity -------------------------------------------------- *)

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let fig2_case =
  {
    Campaign.cs_name = "san-identity";
    cs_workload = "fig2";
    cs_seed = 11;
    cs_horizon_ms = 20_000.;
    cs_plan = Plan.empty;
  }

let test_sanitize_identity () =
  (* The zero-perturbation pin: the same seeded campaign with the
     sanitizer armed must replay the exact same simulation — identical
     sim clock, identical non-san counters, identical non-san journal.
     Only san.* counters and cat-"san" journal lines may appear. *)
  let off = Campaign.run_case fig2_case in
  let on =
    Campaign.run_case ~tweak:(fun c -> { c with Config.sanitize = true })
      fig2_case
  in
  (match (off.Campaign.oc_failure, on.Campaign.oc_failure) with
  | None, None -> ()
  | f_off, f_on ->
      Alcotest.failf "unexpected failure: off=%s on=%s"
        (Option.fold ~none:"-" ~some:Campaign.failure_to_string f_off)
        (Option.fold ~none:"-" ~some:Campaign.failure_to_string f_on));
  Alcotest.(check (float 1e-9))
    "same simulated clock" off.Campaign.oc_sim_seconds
    on.Campaign.oc_sim_seconds;
  let non_san = List.filter (fun (k, _) -> not (contains_sub ~sub:"san." k)) in
  Alcotest.(check (list (pair string int)))
    "non-san counters identical" (non_san off.Campaign.oc_counters)
    (non_san on.Campaign.oc_counters);
  let non_san_lines = List.filter (fun l -> not (contains_sub ~sub:"[san]" l)) in
  Alcotest.(check (list string))
    "non-san journal identical"
    (non_san_lines (Lazy.force off.Campaign.oc_journal))
    (non_san_lines (Lazy.force on.Campaign.oc_journal));
  Alcotest.(check bool) "off run has no san counters" true
    (List.for_all
       (fun (k, _) -> not (contains_sub ~sub:"san." k))
       off.Campaign.oc_counters);
  Alcotest.(check bool) "on run minted capsules" true
    (match List.assoc_opt "san.capsules" on.Campaign.oc_counters with
    | Some n -> n > 0
    | None -> false)

(* --- dynamic rediscovery ---------------------------------------------------- *)

let small_bounds =
  { Explorer.depth_bound = 1; width = 2; max_steps = 64; max_schedules = 20 }

let test_race_rediscovered () =
  let res = Explorer.explore ~bounds:small_bounds Sut.san_race_broken in
  match res.Explorer.res_counterexample with
  | None -> Alcotest.fail "the seeded §6.4 race was not rediscovered"
  | Some cx ->
      Alcotest.(check bool) "verdict names a harmful race" true
        (List.exists (contains_sub ~sub:"harmful race") cx.Explorer.cx_messages);
      Alcotest.(check bool) "shrunk to a single deviation" true
        (List.length cx.Explorer.cx_shrunk <= 1)

let test_leak_rediscovered () =
  let res = Explorer.explore ~bounds:small_bounds Sut.san_lost_trace in
  match res.Explorer.res_counterexample with
  | None -> Alcotest.fail "the planted lost trace was not proved"
  | Some cx ->
      Alcotest.(check bool) "verdict proves a lost trace" true
        (List.exists (contains_sub ~sub:"lost trace") cx.Explorer.cx_messages);
      Alcotest.(check (list (pair int int)))
        "leaks under FIFO already — shrunk to no deviations" []
        cx.Explorer.cx_shrunk

let test_race_benign_with_barrier () =
  (* The same deviated schedule that exposes the harmful race, but with
     the §6.1 transfer barrier ON: the concurrent pair still forms, the
     detector must classify it benign and report nothing. *)
  let last_san = ref None in
  let sut =
    {
      Explorer.sut_name = "san-race-barriered";
      sut_desc = "";
      sut_make =
        (fun () ->
          let cfg =
            {
              Config.default with
              Config.trace_jitter = Sim_time.zero;
              trace_duration = Sim_time.zero;
              sanitize = true;
            }
          in
          let f, _outcome = Scenario.fig5_race_arm ~cfg () in
          let sim = f.Scenario.f5_sim in
          let san = San.install sim.Dgc_core.Sim.eng in
          San.set_shared san (Dgc_core.Collector.back sim.Dgc_core.Sim.col);
          last_san := Some san;
          { Explorer.i_sim = sim; i_check = (fun () -> San.check san) });
    }
  in
  let run = Explorer.run_schedule sut ~max_steps:64 [ (0, 1) ] in
  (match run.Explorer.run_violation with
  | None -> ()
  | Some (step, msgs) ->
      Alcotest.failf "barriered race flagged at step %d: %s" step
        (String.concat " | " msgs));
  match !last_san with
  | None -> Alcotest.fail "sut never built"
  | Some san ->
      Alcotest.(check (list string)) "no harmful race" []
        (List.map San.race_message (San.harmful_races san));
      Alcotest.(check bool) "the concurrent pair still formed" true
        (List.exists (fun r -> not r.San.rc_harmful) (San.races san));
      let j = San.to_json san in
      Alcotest.(check (option string))
        "dgc.san/1 artifact schema" (Some "dgc.san/1")
        (Option.bind (Json.member "schema" j) Json.to_str_opt)

let () =
  Alcotest.run "sanitize"
    [
      ( "vclock",
        [
          QCheck_alcotest.to_alcotest prop_join_laws;
          QCheck_alcotest.to_alcotest prop_order_laws;
          QCheck_alcotest.to_alcotest prop_tick_advances;
          Alcotest.test_case "send precedes receive" `Quick
            test_send_receive_law;
          Alcotest.test_case "list round-trip" `Quick test_roundtrip;
        ] );
      ( "identity",
        [
          Alcotest.test_case "sanitize on perturbs nothing" `Quick
            test_sanitize_identity;
        ] );
      ( "detectors",
        [
          Alcotest.test_case "seeded race rediscovered and shrunk" `Quick
            test_race_rediscovered;
          Alcotest.test_case "planted lost trace proved" `Quick
            test_leak_rediscovered;
          Alcotest.test_case "barriered race stays benign" `Quick
            test_race_benign_with_barrier;
        ] );
    ]
