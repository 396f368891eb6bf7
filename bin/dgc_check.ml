(* dgc-check: protocol conformance, schedule exploration and
   coverage-guided fuzzing of the back-tracing collector.

   Examples:
     dgc-check                          # conformance + explore every SUT
     dgc-check --conformance            # protocol conformance battery only
     dgc-check --explore --scenario fig1 --depth-bound 8
     dgc-check --explore --scenario fig5-race-broken --expect-violation
     dgc-check --list                   # available exploration scenarios

   Exit status 0 means every requested analysis matched its
   expectation; 1 means a conformance violation, an unexpected
   invariant violation, or a missing expected one. *)

open Dgc_analysis
open Cmdliner

type opts = {
  o_conformance : bool;
  o_explore : bool;
  o_scenario : string option;
  o_depth : int;
  o_width : int;
  o_max_steps : int;
  o_max_schedules : int;
  o_seed : int;
  o_expect_violation : bool;
  o_list : bool;
}

let say fmt = Format.printf (fmt ^^ "@.")

let run_conformance opts =
  let report = Conformance.run_battery ~seed:opts.o_seed () in
  say "== protocol conformance ==";
  say "%a" Conformance.pp_report report;
  Conformance.clean report

(* A SUT passes when its outcome matches its expectation: the stock
   scenarios must explore clean, the seeded-bug ones must produce a
   counterexample (and have it shrink). *)
let seeded_bug_suts () =
  [
    Sut.fig5_race_broken.Explorer.sut_name;
    Sut.san_race_broken.Explorer.sut_name;
    Sut.san_lost_trace.Explorer.sut_name;
  ]

let expect_violation opts sut =
  opts.o_expect_violation
  || List.mem sut.Explorer.sut_name (seeded_bug_suts ())

let run_explore_one opts sut =
  let bounds =
    {
      Explorer.depth_bound = opts.o_depth;
      width = opts.o_width;
      max_steps = opts.o_max_steps;
      max_schedules = opts.o_max_schedules;
    }
  in
  let result = Explorer.explore ~bounds sut in
  say "%a" Explorer.pp_result result;
  let expected = expect_violation opts sut in
  let ok = expected <> Explorer.clean result in
  if not ok then
    say "  UNEXPECTED: wanted %s"
      (if expected then "a violation (seeded bug not found)"
       else "a clean exploration");
  ok

let run_explore opts =
  say "== schedule exploration (depth %d, width %d, %d steps, %d schedules) =="
    opts.o_depth opts.o_width opts.o_max_steps opts.o_max_schedules;
  match opts.o_scenario with
  | None -> List.for_all (run_explore_one opts) Sut.catalog
  | Some name -> (
      match Sut.find name with
      | Some s -> run_explore_one opts s
      | None ->
          say "unknown scenario %S (try --list)" name;
          false)

let run opts =
  if opts.o_list then begin
    say "exploration scenarios:";
    List.iter
      (fun s ->
        say "  %-18s %s" s.Explorer.sut_name s.Explorer.sut_desc)
      Sut.catalog;
    0
  end
  else begin
    (* no explicit selection = run everything *)
    let both = (not opts.o_conformance) && not opts.o_explore in
    let ok_conf =
      if opts.o_conformance || both then run_conformance opts else true
    in
    let ok_exp = if opts.o_explore || both then run_explore opts else true in
    if ok_conf && ok_exp then begin
      say "dgc-check: ok";
      0
    end
    else begin
      say "dgc-check: FAILED";
      1
    end
  end

let opts_term =
  let open Term in
  let conformance =
    Arg.(
      value & flag
      & info [ "conformance" ] ~doc:"Run the protocol conformance battery.")
  in
  let explore =
    Arg.(
      value & flag
      & info [ "explore" ] ~doc:"Run the schedule-exploring race detector.")
  in
  let scenario =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ]
          ~doc:"Explore only this scenario (see $(b,--list)).")
  in
  let depth =
    Arg.(
      value
      & opt int Explorer.default_bounds.Explorer.depth_bound
      & info [ "depth-bound" ]
          ~doc:"Maximum schedule deviations per explored run.")
  in
  let width =
    Arg.(
      value
      & opt int Explorer.default_bounds.Explorer.width
      & info [ "width" ] ~doc:"Event ranks considered at each step.")
  in
  let max_steps =
    Arg.(
      value
      & opt int Explorer.default_bounds.Explorer.max_steps
      & info [ "max-steps" ] ~doc:"Events executed per run.")
  in
  let max_schedules =
    Arg.(
      value
      & opt int Explorer.default_bounds.Explorer.max_schedules
      & info [ "max-schedules" ] ~doc:"Total schedules explored per scenario.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")
  in
  let expect_violation =
    Arg.(
      value & flag
      & info [ "expect-violation" ]
          ~doc:"Invert the verdict: exploration must find a violation.")
  in
  let list =
    Arg.(
      value & flag & info [ "list" ] ~doc:"List exploration scenarios.")
  in
  let make o_conformance o_explore o_scenario o_depth o_width o_max_steps
      o_max_schedules o_seed o_expect_violation o_list =
    {
      o_conformance;
      o_explore;
      o_scenario;
      o_depth;
      o_width;
      o_max_steps;
      o_max_schedules;
      o_seed;
      o_expect_violation;
      o_list;
    }
  in
  const make $ conformance $ explore $ scenario $ depth $ width $ max_steps
  $ max_schedules $ seed $ expect_violation $ list

(* --- fuzz subcommand: coverage-guided plan/schedule fuzzing ------------ *)

module Fuzzer = Dgc_fuzz.Fuzzer
module Freport = Dgc_fuzz.Report
module Json = Dgc_telemetry.Json

(* The smoke recipe: a cold corpus pointed at the two seeded defects —
   the §6.4 transfer-barrier race (schedule mutation against
   san-race-broken) and the lost-trace leak (plan mutation against
   fig2 with dgc-san on and the §4.6 timeouts off). Budgeted to finish
   under @runtest; stop_on ends the loop as soon as both are found. *)
let smoke_opts ~seed =
  {
    Fuzzer.default_opts with
    Fuzzer.o_name = "fuzz-smoke";
    o_seed = seed;
    o_execs = 48;
    o_cov_size = 4096;
    o_workloads = [ "fig2" ];
    o_suts = [ "san-race-broken" ];
    o_tweaks = [ "sanitize"; "no_timeouts" ];
    o_horizon_ms = 15_000.;
    o_events = 2;
    o_max_steps = 64;
    o_width = 3;
    o_stop_on = [ "race"; "leak" ];
  }

let print_fuzz_report (r : Freport.t) =
  say "[%s] mode %s: %d execs, %d/%d coverage slots hit (%d records)"
    r.Freport.r_name r.Freport.r_mode r.Freport.r_execs
    (Dgc_fuzz.Coverage.hits r.Freport.r_map)
    (Dgc_fuzz.Coverage.size r.Freport.r_map)
    (Dgc_fuzz.Coverage.total r.Freport.r_map);
  say "  corpus pool: %d inputs (%d plans, %d schedules), %d promoted"
    r.Freport.r_pool_size r.Freport.r_pool_plans r.Freport.r_pool_schedules
    r.Freport.r_promoted;
  List.iter
    (fun o ->
      say "  op %-10s tried %3d, novel %3d, failing %3d" o.Freport.op_name
        o.Freport.op_tried o.Freport.op_novel o.Freport.op_failed)
    r.Freport.r_ops;
  List.iter
    (fun f ->
      say "  FOUND %s (%s input, exec %d%s): %s" f.Freport.fd_kind
        f.Freport.fd_input f.Freport.fd_exec
        (match f.Freport.fd_promoted with
        | Some p -> ", promoted as " ^ p
        | None -> "")
        f.Freport.fd_detail)
    r.Freport.r_found;
  match r.Freport.r_baseline with
  | Some (execs, hits) ->
      say "  baseline (uniform random, %d execs): %d slots hit" execs hits
  | None -> ()

let split_commas s =
  String.split_on_char ',' s |> List.filter (fun x -> not (String.equal x ""))

let fuzz smoke with_baseline out promote seed execs workloads suts tweaks
    horizon_ms events max_steps width corpus =
  let opts =
    if smoke then smoke_opts ~seed
    else
      {
        Fuzzer.default_opts with
        Fuzzer.o_name = "fuzz";
        o_seed = seed;
        o_execs = execs;
        o_workloads = split_commas workloads;
        o_suts = split_commas suts;
        o_tweaks = split_commas tweaks;
        o_horizon_ms = horizon_ms;
        o_events = events;
        o_max_steps = max_steps;
        o_width = width;
      }
  in
  let opts =
    { opts with Fuzzer.o_promote_dir = promote; o_corpus = corpus }
  in
  say "== coverage-guided fuzzing (%s, seed %d, budget %d execs) =="
    opts.Fuzzer.o_name opts.Fuzzer.o_seed opts.Fuzzer.o_execs;
  let report =
    if with_baseline then Fuzzer.with_baseline opts else Fuzzer.run opts
  in
  print_fuzz_report report;
  (match out with
  | Some path ->
      Json.write_file ~path (Freport.to_json report);
      say "  report written to %s" path
  | None -> ());
  let found k =
    List.exists (fun f -> String.equal f.Freport.fd_kind k) report.Freport.r_found
  in
  let ok =
    if smoke then begin
      let ok_race = found "race" and ok_leak = found "leak" in
      if not ok_race then
        say "  SMOKE FAILED: seeded race not rediscovered within budget";
      if not ok_leak then
        say "  SMOKE FAILED: seeded lost-trace leak not rediscovered within \
             budget";
      let ok_base =
        match report.Freport.r_baseline with
        | Some (_, hits) ->
            let guided = Dgc_fuzz.Coverage.hits report.Freport.r_map in
            if guided <= hits then
              say "  SMOKE FAILED: guided coverage (%d) does not beat the \
                   random baseline (%d)"
                guided hits;
            guided > hits
        | None -> true
      in
      ok_race && ok_leak && ok_base
    end
    else if report.Freport.r_found <> [] then begin
      say "  failures found on supposedly-clean targets";
      false
    end
    else true
  in
  if ok then begin
    say "dgc-check fuzz: ok";
    0
  end
  else begin
    say "dgc-check fuzz: FAILED";
    1
  end

(* A seed-corpus file that does not decode stops the run: a corpus
   the fuzzer silently shrank would make a campaign depend on which
   files happen to load. *)
let run_fuzz smoke with_baseline out promote seed execs workloads suts tweaks
    horizon_ms events max_steps width paths =
  let load path =
    Result.bind (Json.read_file ~path) Dgc_fuzz.Input.of_json
    |> Result.map fst
    |> Result.map_error (Printf.sprintf "%s: %s" path)
  in
  match Json.list_map load paths with
  | Error e ->
      say "dgc-check fuzz: cannot load seed corpus file %s" e;
      2
  | Ok corpus ->
      fuzz smoke with_baseline out promote seed execs workloads suts tweaks
        horizon_ms events max_steps width corpus

let fuzz_cmd =
  let doc =
    "coverage-guided fuzzing of fault plans and explorer schedules, with \
     reproducer shrinking and corpus promotion"
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Budgeted cold-corpus run that must rediscover both seeded \
             defects (the transfer-barrier race and the lost-trace leak).")
  in
  let baseline =
    Arg.(
      value & flag
      & info [ "baseline" ]
          ~doc:
            "Also spend the same budget on uniform-random inputs and embed \
             the comparison in the report.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the dgc.fuzz/1 report here.")
  in
  let promote =
    Arg.(
      value
      & opt (some string) None
      & info [ "promote" ] ~docv:"DIR"
          ~doc:"Promote shrunk reproducers into this corpus directory.")
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Campaign seed.") in
  let execs =
    Arg.(
      value & opt int 200
      & info [ "execs" ] ~doc:"Execution budget (long mode).")
  in
  let workloads =
    Arg.(
      value
      & opt string "churn,fig2,ring"
      & info [ "workloads" ] ~doc:"Comma-separated plan-input workloads.")
  in
  let suts =
    Arg.(
      value & opt string "fig1"
      & info [ "suts" ] ~doc:"Comma-separated schedule-input SUTs.")
  in
  let tweaks =
    Arg.(
      value & opt string ""
      & info [ "tweaks" ]
          ~doc:"Comma-separated config tweaks armed on every plan run.")
  in
  let horizon_ms =
    Arg.(
      value & opt float 20_000.
      & info [ "horizon-ms" ] ~doc:"Chaos horizon per plan run.")
  in
  let events =
    Arg.(
      value & opt int 3
      & info [ "events" ] ~doc:"Fault windows per fresh random plan.")
  in
  let max_steps =
    Arg.(
      value & opt int 400
      & info [ "max-steps" ] ~doc:"Step bound per schedule run.")
  in
  let width =
    Arg.(
      value & opt int 3 & info [ "width" ] ~doc:"Deviation ranks considered.")
  in
  let corpus =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"CORPUS" ~doc:"Seed corpus files to warm the pool.")
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc)
    Term.(
      const run_fuzz $ smoke $ baseline $ out $ promote $ seed $ execs
      $ workloads $ suts $ tweaks $ horizon_ms $ events $ max_steps $ width
      $ corpus)

let cmd =
  let doc =
    "check protocol conformance and explore event schedules for invariant \
     violations"
  in
  Cmd.group
    ~default:Term.(const run $ opts_term)
    (Cmd.info "dgc-check" ~doc)
    [ fuzz_cmd ]

let () = exit (Cmd.eval' cmd)
