(* A tour of the §7 baselines on the same workload.

     dune exec examples/baselines_tour.exe

   Runs the identical scenario — a 3-site garbage cycle plus a live
   ring, with site 3 crashed and unrelated to the cycle — under each
   collector, and reports who collects what at which cost. *)

open Dgc_prelude
open Dgc_simcore
open Dgc_rts
open Dgc_core
open Dgc_workload
open Dgc_baselines

let say fmt = Format.printf (fmt ^^ "@.")
let s = Site_id.of_int

let cfg =
  {
    Config.default with
    Config.n_sites = 4;
    trace_interval = Sim_time.of_seconds 10.;
    delta = 3;
    threshold2 = 6;
    threshold_bump = 4;
  }

(* Build the shared scenario on a fresh engine. *)
let build eng =
  ignore (Graph_gen.ring eng ~sites:[ s 0; s 1; s 2 ] ~per_site:2 ~rooted:false);
  ignore (Graph_gen.ring eng ~sites:[ s 0; s 1; s 2 ] ~per_site:1 ~rooted:true);
  Engine.crash eng (s 3)

let report name eng collected extra =
  let m = Engine.metrics eng in
  say "  %-14s collected=%-5b msgs=%-5d %s" name collected
    (Metrics.get m "msg.total") extra

let () =
  say "Scenario: 6-object garbage cycle on sites 0-2, live ring beside";
  say "it, and site 3 (unrelated) crashed for the whole run.";
  say "";

  (* Back tracing (this paper). *)
  let () =
    let sim = Sim.make ~cfg () in
    build sim.Sim.eng;
    Sim.start sim;
    let ok = Sim.collect_all sim ~max_rounds:40 () in
    let m = Engine.metrics sim.Sim.eng in
    report "back-tracing" sim.Sim.eng ok
      (Format.asprintf "back-msgs=%d traces=%d"
         (Metrics.get m "back.msgs")
         (Metrics.get m "back.traces_started"))
  in

  (* Global tracing: stalls because site 3 is down. *)
  let () =
    let eng = Engine.create cfg in
    let gt = Global_trace.install eng in
    build eng;
    Engine.start_gc_schedule eng;
    let finished = ref false in
    Global_trace.collect gt ~on_done:(fun ~freed:_ ~rounds:_ -> finished := true) ();
    Engine.run_for eng (Sim_time.of_minutes 10.);
    report "global-trace" eng
      (!finished && Dgc_oracle.Oracle.garbage_count eng = 0)
      "(stalls: needs every site up)"
  in

  (* Hughes: the crashed site pins the threshold at zero. *)
  let () =
    let eng = Engine.create cfg in
    build eng;
    let h = Hughes.install eng ~depth:(Dgc_oracle.Oracle.max_distance eng) in
    Engine.start_gc_schedule eng;
    for _ = 1 to 40 do
      Engine.run_for eng (Sim_time.of_seconds 15.);
      Hughes.run_threshold_round h ()
    done;
    report "hughes" eng
      (Dgc_oracle.Oracle.garbage_count eng = 0)
      (Format.asprintf "(threshold stuck at %.0f)" (Hughes.threshold h))
  in

  (* Group tracing: works here (the group avoids site 3), at the cost
     of a group-wide marking trace. *)
  let () =
    let eng = Engine.create cfg in
    let g = Group_trace.install eng ~max_group:8 in
    build eng;
    Engine.start_gc_schedule eng;
    Engine.run_for eng (Sim_time.of_minutes 10.);
    report "group-trace" eng
      (Dgc_oracle.Oracle.garbage_count eng = 0)
      (Format.asprintf "groups=%d size=%d" (Group_trace.groups_formed g)
         (Group_trace.last_group_size g))
  in

  (* Migration: converges the cycle onto one site, paying in moved
     bytes. *)
  let () =
    let eng = Engine.create cfg in
    let m = Migration.install eng in
    build eng;
    Engine.start_gc_schedule eng;
    Engine.run_for eng (Sim_time.of_minutes 20.);
    report "migration" eng
      (Dgc_oracle.Oracle.garbage_count eng = 0)
      (Format.asprintf "moves=%d bytes=%d" (Migration.migrations m)
         (Migration.bytes_moved m))
  in
  say "";
  say "Back tracing collects with a handful of small messages touching";
  say "only the cycle's sites; the global schemes stall on the crash;";
  say "group tracing marks a whole subgraph; migration pays in copied";
  say "object bytes."
