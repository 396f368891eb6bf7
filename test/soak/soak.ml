(* The soak tier: long randomized runs. Run with `dune build @soak`;
   excluded from tier-1 `dune runtest`.

   Each chaos workload gets a block of seeded random fault plans at a
   longer horizon than the smoke campaign. Any failure is shrunk to a
   minimal reproducer and printed as a ready-to-commit corpus plan.

   A second block runs windowed churn: a 32-site hypertext under 32
   churn agents with 2 s §6.2 trace windows and the oracle checking
   every sweep, seeds 1-100. References keep arriving while windows
   are open, so this is the run that exercises the window's arrival
   rule ([Local_trace.apply]).

   Between them, a block holds back tracing and every §7 baseline to
   the oracle: the EXP-C12 hypertext comparison run, seeds 1-200,
   without loss and (Hughes excepted: it refuses loss) with 20% of
   collector messages dropped. *)

open Dgc_prelude
open Dgc_simcore
open Dgc_rts
open Dgc_core
open Dgc_chaos
module Graph_gen = Dgc_workload.Graph_gen
module Churn = Dgc_workload.Churn
module Comparison = Dgc_baselines.Comparison

let seeds_per_workload = 8
let horizon_ms = 90_000.
let events_per_plan = 5

(* The end-to-end benchmark's mutator-churn workload, seed for seed,
   with windows instead of atomic traces: agents stop after 8 trace
   rounds of the 40-round horizon. A sweep that would free a live
   object raises [Oracle.Safety_violation]; a window that drops the
   outref of an arrival fails the next pin. *)
let windowed_churn_seeds = List.init 100 (fun i -> i + 1)

let windowed_churn seed =
  let cfg = { Config.default with Config.n_sites = 32; seed } in
  let sim = Sim.make ~cfg () in
  let rng = Rng.create ~seed:(seed lxor 0x5eed) in
  ignore
    (Graph_gen.hypertext sim.Sim.eng ~rng ~docs_per_site:100 ~pages_per_doc:6
       ~cross_links:320 ~rooted_frac:0.5);
  let agents =
    Churn.start sim ~rng:(Rng.split rng) ~agents:32
      ~mean_op_gap:(Sim_time.of_millis 50.)
  in
  Sim.start sim;
  let round = cfg.Config.trace_interval in
  match
    Sim.run_for sim (Sim_time.of_seconds (8. *. Sim_time.to_seconds round));
    Churn.stop agents;
    Sim.run_for sim (Sim_time.of_seconds (32. *. Sim_time.to_seconds round))
  with
  | () -> None
  | exception e -> Some (Printexc.to_string e)

let soak_windowed_churn () =
  let failed =
    List.filter_map
      (fun seed ->
        Option.map
          (fun why ->
            Printf.printf "FAIL windowed churn seed %d: %s\n%!" seed why;
            seed)
          (windowed_churn seed))
      windowed_churn_seeds
  in
  Printf.printf "soak %-10s %d/%d ok\n%!" "win-churn"
    (List.length windowed_churn_seeds - List.length failed)
    (List.length windowed_churn_seeds);
  List.length failed

let baseline_seeds = List.init 200 (fun i -> i + 1)

(* One failing (collector, loss, seed) per line; returns the count of
   runs and of failures. *)
let soak_baselines () =
  let runs = ref 0 and failed = ref 0 in
  List.iter
    (fun collector ->
      let drops =
        if collector = Comparison.Hughes then [ 0. ] else [ 0.; 0.2 ]
      in
      List.iter
        (fun ext_drop ->
          List.iter
            (fun seed ->
              incr runs;
              let fail why =
                incr failed;
                Printf.printf "FAIL %s ext_drop %.1f seed %d: %s\n%!"
                  (Comparison.name collector) ext_drop seed why
              in
              match
                Comparison.hypertext collector
                  (Comparison.config ~seed ~ext_drop)
              with
              | { Comparison.lost = 0; _ } -> ()
              | o -> fail (Printf.sprintf "%d live objects lost" o.lost)
              | exception e -> fail (Printexc.to_string e))
            baseline_seeds)
        drops)
    Comparison.collectors;
  Printf.printf "soak %-10s %d/%d ok\n%!" "baselines" (!runs - !failed) !runs;
  (!runs, !failed)

let () =
  let failures = ref 0 in
  let cases = ref 0 in
  List.iter
    (fun workload ->
      let seeds =
        List.init seeds_per_workload (fun i -> (1000 * (i + 1)) + 7)
      in
      let summary =
        Campaign.run ~workload ~seeds ~horizon_ms ~events_per_plan ()
      in
      cases := !cases + List.length summary.Campaign.sm_outcomes;
      List.iter
        (fun (oc, shrunk, replays) ->
          incr failures;
          let case = oc.Campaign.oc_case in
          Printf.printf "FAIL %s: %s\n" case.Campaign.cs_name
            (match oc.Campaign.oc_failure with
            | Some f -> Campaign.failure_to_string f
            | None -> "?");
          Format.printf
            "  minimal reproducer (%d replays):@.  @[%a@]@.  replay: dgc-sim \
             chaos --workload %s --seed %d --plan <saved>@."
            replays Plan.pp shrunk case.Campaign.cs_workload
            case.Campaign.cs_seed)
        summary.Campaign.sm_failures;
      Printf.printf "soak %-10s %d/%d ok\n%!" workload
        (List.length summary.Campaign.sm_outcomes
        - List.length summary.Campaign.sm_failures)
        (List.length summary.Campaign.sm_outcomes))
    Workloads.names;
  let runs, baseline_failures = soak_baselines () in
  failures := !failures + baseline_failures;
  cases := !cases + runs;
  let churn_failures = soak_windowed_churn () in
  failures := !failures + churn_failures;
  cases := !cases + List.length windowed_churn_seeds;
  if !failures > 0 then begin
    Printf.printf "soak: %d/%d cases FAILED\n" !failures !cases;
    exit 1
  end
  else Printf.printf "soak: all %d cases safe and complete\n" !cases
