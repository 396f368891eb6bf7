(* dgc-sim: run configurable simulations of the back-tracing collector
   (or a baseline) on synthetic workloads and report what happened.

   Examples:
     dgc-sim run --sites 4 --workload ring --span 3 --minutes 10
     dgc-sim run --workload hypertext --churn 4 --minutes 20 --drop 0.1
     dgc-sim run --collector hughes --workload ring --crash 2
     dgc-sim trace --scenario fig1 --out fig1_trace.json
     dgc-sim metrics --workload random --minutes 5 --out run.json
*)

open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts
open Dgc_core
open Dgc_workload
open Dgc_baselines
open Dgc_telemetry
module Obs = Dgc_observe
module Prof = Dgc_profile.Profile
module Ledg = Dgc_profile.Ledger
open Cmdliner

type collector_kind = Back_tracing | Global | Hughes_ts | Group | Migrate

type opts = {
  o_sites : int;
  o_seed : int;
  o_workload : string;
  o_span : int;
  o_per_site : int;
  o_delta : int;
  o_threshold2 : int;
  o_interval : float;
  o_window : float;
  o_drop : float;
  o_churn : int;
  o_minutes : float;
  o_crash : int option;
  o_collector : collector_kind;
  o_verbose : bool;
  o_dot : string option;
  o_journal : int;
  o_profile : bool;
}

let say fmt = Format.printf (fmt ^^ "@.")

let build_workload eng opts =
  let rng = Rng.create ~seed:(opts.o_seed + 1) in
  let sites n = List.init n Site_id.of_int in
  match opts.o_workload with
  | "ring" ->
      ignore
        (Graph_gen.ring eng ~sites:(sites opts.o_span)
           ~per_site:opts.o_per_site ~rooted:false);
      ignore
        (Graph_gen.ring eng ~sites:(sites opts.o_span)
           ~per_site:opts.o_per_site ~rooted:true)
  | "clique" ->
      ignore (Graph_gen.clique eng ~sites:(sites opts.o_span) ~rooted:false)
  | "hypertext" ->
      ignore
        (Graph_gen.hypertext eng ~rng ~docs_per_site:3
           ~pages_per_doc:opts.o_per_site ~cross_links:(opts.o_sites * 6)
           ~rooted_frac:0.5)
  | "random" ->
      ignore
        (Graph_gen.random_graph eng ~rng ~objects_per_site:20
           ~out_degree:1.5 ~remote_frac:0.3 ~root_frac:0.08)
  | w -> Fmt.failwith "unknown workload %S" w

let config_of opts =
  {
    Config.default with
    Config.n_sites = opts.o_sites;
    seed = opts.o_seed;
    delta = opts.o_delta;
    threshold2 = opts.o_threshold2;
    trace_interval = Sim_time.of_seconds opts.o_interval;
    trace_jitter = Sim_time.of_seconds (opts.o_interval /. 10.);
    trace_duration = Sim_time.of_seconds opts.o_window;
    ext_drop = opts.o_drop;
    profile = opts.o_profile;
  }

(* The journal is always attached; its tail is the first thing an
   operator wants when a run ends in a violated invariant. *)
let attach_journal eng = Engine.attach_journal eng (Journal.create ())

(* Baseline collectors build their engine directly (no [Sim.make]), so
   [--profile] attaches the profiler here. *)
let attach_profiler cfg eng =
  if cfg.Config.profile && Option.is_none (Engine.profile eng) then
    Engine.attach_profile eng (Prof.create ())

let print_journal_tail ?(n = 20) eng =
  match Engine.journal eng with
  | None -> ()
  | Some j ->
      say "-- journal tail (last %d entries) --------------------------" n;
      List.iter
        (fun e -> say "%a" Journal.pp_entry e)
        (Journal.entries ~last:n j)

let report eng ~verbose =
  let m = Engine.metrics eng in
  say "-- per-site summary ----------------------------------------";
  say "%a" Report.pp_summary eng;
  say "%s" (Report.garbage_overview eng);
  say "-- results ------------------------------------------------";
  say "garbage remaining (oracle): %d" (Dgc_oracle.Oracle.garbage_count eng);
  (* Local traces count under "gc."; the global and group baselines
     count their own frees. *)
  say "objects freed:              %d"
    (Metrics.get m "gc.objects_freed"
    + Metrics.get m "global.objects_freed"
    + Metrics.get m "group.objects_freed");
  say "local traces:               %d" (Metrics.get m "gc.local_traces");
  say "messages (total):           %d" (Metrics.get m "msg.total");
  say "back traces started:        %d" (Metrics.get m "back.traces_started");
  say "  garbage / live verdicts:  %d / %d"
    (Metrics.get m "back.outcome_garbage")
    (Metrics.get m "back.outcome_live");
  say "  back-trace messages:      %d" (Metrics.get m "back.msgs");
  (match Metrics.hist_stats m "back.latency_ms" with
  | Some h ->
      say "  latency ms p50/p95/p99:   %.2f / %.2f / %.2f" h.Metrics.p50
        h.Metrics.p95 h.Metrics.p99
  | None -> ());
  if verbose then begin
    say "-- all counters -------------------------------------------";
    List.iter (fun (k, v) -> say "%-40s %d" k v) (Metrics.counters m);
    say "-- histograms ---------------------------------------------";
    List.iter
      (fun (k, h) ->
        say "%-40s n=%d p50=%.3g p95=%.3g p99=%.3g max=%.3g" k h.Metrics.n
          h.Metrics.p50 h.Metrics.p95 h.Metrics.p99 h.Metrics.max)
      (Metrics.hists m)
  end;
  match Dgc_oracle.Oracle.table_violations eng with
  | [] -> say "table integrity:            ok"
  | vs ->
      say "table integrity:            %d violations" (List.length vs);
      if verbose then List.iter (fun v -> say "  %s" v) vs;
      print_journal_tail eng

(* The one writer for text outputs (dot, Prometheus, folded stacks,
   JSONL); JSON documents go through [Json.write_file]. *)
let write_text ~path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

let dump_dot opts eng =
  match opts.o_dot with
  | None -> ()
  | Some path ->
      write_text ~path (Report.to_dot eng);
      say "wrote object graph to %s" path

let print_journal opts eng =
  if opts.o_journal > 0 then
    match Engine.journal eng with
    | Some j ->
        say "-- journal (last %d events) --------------------------------"
          opts.o_journal;
        List.iter
          (fun e -> say "%a" Journal.pp_entry e)
          (Journal.entries ~last:opts.o_journal j)
    | None -> ()

(* [col] is the back-tracing collector, when the run has one: it adds
   the audit section and the profile's ledger rows. *)
let write_artifact ?col ~out ~name eng =
  let audit =
    Option.map (fun col -> Obs.Audit.to_json (Obs.Audit.run col)) col
  in
  let ledger =
    Option.map (fun col -> Back_trace.ledger_rows (Collector.back col)) col
  in
  (* An attached profiler lands as the artifact's "profile" section
     automatically — no extra flag beyond --profile. *)
  let profile =
    Option.map (fun p -> Prof.to_json ~name ?ledger p) (Engine.profile eng)
  in
  let art =
    Run_artifact.make ~name
      ~sim_seconds:(Sim_time.to_seconds (Engine.now eng))
      ?audit
      ~series:(Engine.series eng)
      ?profile
      (Engine.metrics eng)
  in
  Json.write_file ~path:out art;
  say "wrote run artifact to %s" out

let dump_flight_to eng path =
  match Engine.dump_flight eng ~reason:"cli: --dump-flight" with
  | None ->
      say "no flight recorder attached (flight_capacity = 0); nothing to dump"
  | Some j ->
      Json.write_file ~path j;
      say "wrote flight dump to %s" path

(* What a collector brings to [run]: the engine it is installed on, the
   back-tracing collector the artifact audits (none for a baseline), and
   [arm]. [run] calls [arm] once the workload is built; it returns the
   step that, after the crash and the start of the local-trace schedule,
   runs the simulated minutes and prints the collector's summary. *)
type installed = {
  i_eng : Engine.t;
  i_audited : Collector.t option;
  i_arm : unit -> Sim_time.t -> unit;
}

(* traced: attach a tracer so the audit can cite spans. *)
let install_collector ~traced cfg opts =
  let baseline eng drive =
    { i_eng = eng; i_audited = None; i_arm = (fun () -> drive) }
  in
  match opts.o_collector with
  | Back_tracing ->
      let sim = Sim.make ~cfg () in
      if traced then Engine.attach_tracer sim.Sim.eng (Tracer.create ());
      let arm () =
        let churn =
          if opts.o_churn > 0 then
            Some
              (Churn.start sim
                 ~rng:(Rng.create ~seed:(opts.o_seed + 2))
                 ~agents:opts.o_churn
                 ~mean_op_gap:(Sim_time.of_millis 400.))
          else None
        in
        fun minutes ->
          Sim.run_for sim minutes;
          Option.iter Churn.stop churn;
          Sim.run_for sim (Sim_time.of_minutes 1.)
      in
      { i_eng = sim.Sim.eng; i_audited = Some sim.Sim.col; i_arm = arm }
  | Global ->
      let eng = Engine.create cfg in
      let gt = Global_trace.install eng in
      baseline eng (fun minutes ->
          let finished = ref false in
          Global_trace.collect gt
            ~on_done:(fun ~freed ~rounds ->
              finished := true;
              say "global collection: freed %d in %d rounds" freed rounds)
            ();
          Engine.run_for eng minutes;
          if not !finished then say "global collection DID NOT FINISH")
  | Hughes_ts ->
      if cfg.Config.ext_drop > 0. then begin
        prerr_endline "dgc-sim: --collector hughes needs --drop 0";
        exit 2
      end;
      let eng = Engine.create cfg in
      (* The slack follows the built workload's depth, so install at
         arm time. *)
      let arm () =
        let h =
          Hughes.install eng ~depth:(Dgc_oracle.Oracle.max_distance eng)
        in
        fun minutes ->
          let steps =
            int_of_float (Sim_time.to_seconds minutes /. opts.o_interval)
          in
          for _ = 1 to max 1 steps do
            Engine.run_for eng (Sim_time.of_seconds opts.o_interval);
            Hughes.run_threshold_round h ()
          done;
          say "hughes threshold: %.1f after %d rounds" (Hughes.threshold h)
            (Hughes.rounds_completed h)
      in
      { i_eng = eng; i_audited = None; i_arm = arm }
  | Group ->
      let eng = Engine.create cfg in
      let g = Group_trace.install eng ~max_group:opts.o_sites in
      baseline eng (fun minutes ->
          Engine.run_for eng minutes;
          say "groups: %d formed, %d aborted, last size %d"
            (Group_trace.groups_formed g)
            (Group_trace.groups_aborted g)
            (Group_trace.last_group_size g))
  | Migrate ->
      let eng = Engine.create cfg in
      let m = Migration.install eng in
      baseline eng (fun minutes ->
          Engine.run_for eng minutes;
          say "migration: %d moves, %d bytes, %d multi-holder skips"
            (Migration.migrations m) (Migration.bytes_moved m)
            (Migration.skipped_multi_holder m))

(* artifact: when set, emit a machine-readable Run_artifact JSON at the
   end of the run (the [metrics] subcommand); back-tracing runs get a
   tracer attached and an "audit" section explaining any garbage the
   run left behind. prom: print the final time-series values in
   Prometheus text exposition. dump_flight: write the ring dump even
   though the run ended without a failure. *)
let run ?artifact ?dump_flight ?(prom = false) ?prom_out opts =
  let cfg = config_of opts in
  say "dgc-sim: %a" Config.pp cfg;
  let c = install_collector ~traced:(artifact <> None) cfg opts in
  let eng = c.i_eng in
  attach_journal eng;
  attach_profiler cfg eng;
  build_workload eng opts;
  let drive = c.i_arm () in
  Option.iter (fun s -> Engine.crash eng (Site_id.of_int s)) opts.o_crash;
  Engine.start_gc_schedule eng;
  drive (Sim_time.of_minutes opts.o_minutes);
  report eng ~verbose:opts.o_verbose;
  print_journal opts eng;
  dump_dot opts eng;
  Option.iter (dump_flight_to eng) dump_flight;
  if prom then print_string (Series.to_prom (Engine.series eng));
  Option.iter
    (fun path ->
      write_text ~path (Series.to_prom (Engine.series eng));
      say "wrote Prometheus exposition to %s" path)
    prom_out;
  Option.iter
    (fun out -> write_artifact ?col:c.i_audited ~out ~name:"dgc-sim" eng)
    artifact;
  0

(* --- trace subcommand: record one scenario as causal spans ------------- *)

let scenario_cfg =
  {
    Config.default with
    Config.delta = 3;
    threshold2 = 6;
    threshold_bump = 4;
    trace_duration = Sim_time.zero;
  }

let run_trace scenario out format =
  let tracer = Tracer.create () in
  let eng =
    match scenario with
    | "fig1" ->
        (* The f-g cycle is garbage at rest: the periodic schedule finds
           and collects it on its own. *)
        let f = Scenario.fig1 ~cfg:scenario_cfg () in
        let sim = f.Scenario.f1_sim in
        Engine.attach_tracer sim.Sim.eng tracer;
        Sim.start sim;
        ignore (Sim.collect_all sim ~max_rounds:30 ());
        sim.Sim.eng
    | "fig2" ->
        (* Everything is suspected garbage; start the §4.1 outref-start
           trace from c at Q, as the paper's walkthrough does. *)
        let f = Scenario.fig2 ~cfg:scenario_cfg () in
        let sim = f.Scenario.f2_sim in
        Engine.attach_tracer sim.Sim.eng tracer;
        Scenario.settle sim ~rounds:8;
        ignore
          (Collector.start_back_trace sim.Sim.col
             (Oid.site f.Scenario.f2_a) f.Scenario.f2_c);
        Sim.run_for sim (Sim_time.of_seconds 5.);
        sim.Sim.eng
    | "fig6" ->
        (* All live; suspect the g-side path and trace from outref g at
           Q — the trace forks (sources Q and R) and returns Live. *)
        let f, _w = Scenario.fig6 ~cfg:scenario_cfg () in
        let sim = f.Scenario.f5_sim in
        Engine.attach_tracer sim.Sim.eng tracer;
        Scenario.settle sim ~rounds:9;
        ignore
          (Collector.start_back_trace sim.Sim.col f.Scenario.f5_q
             f.Scenario.f5_g);
        Sim.run_for sim (Sim_time.of_seconds 5.);
        sim.Sim.eng
    | s -> Fmt.failwith "unknown scenario %S (try fig1, fig2, fig6)" s
  in
  (match format with
  | `Chrome ->
      (* Merge the engine's time series as counter tracks so Perfetto
         shows load and memory gauges under the span lanes. *)
      Json.write_file ~path:out
        (Tracer.to_chrome
           ~counters:(Series.chrome_counters (Engine.series eng))
           tracer)
  | `Jsonl -> write_text ~path:out (Tracer.to_jsonl tracer));
  let spans = Tracer.spans tracer in
  let roots = List.filter (fun s -> s.Tracer.name = "back_trace") spans in
  let sites =
    List.sort_uniq Int.compare (List.map (fun s -> s.Tracer.site) spans)
  in
  say "scenario %s: %d spans across %d sites, %d back traces" scenario
    (List.length spans) (List.length sites) (List.length roots);
  List.iter
    (fun r ->
      let outcome =
        match List.assoc_opt "outcome" r.Tracer.attrs with
        | Some (Json.Str s) -> s
        | _ -> "unfinished"
      in
      say "  %s at site %d: %s" r.Tracer.trace r.Tracer.site outcome)
    roots;
  say "wrote %s trace to %s (load chrome format in ui.perfetto.dev)"
    (match format with `Chrome -> "chrome" | `Jsonl -> "jsonl")
    out;
  (match Engine.metrics eng |> fun m -> Metrics.hist_stats m "back.latency_ms"
   with
  | Some h ->
      say "back-trace latency ms: p50=%.2f p95=%.2f max=%.2f" h.Metrics.p50
        h.Metrics.p95 h.Metrics.max
  | None -> ());
  0

(* --- audit / inspect subcommands: the observe library ------------------- *)

let all_figs = [ "fig1"; "fig2"; "fig3"; "fig4"; "fig5"; "fig6" ]

let scenario_sim ?(cfg = scenario_cfg) = function
  | "fig1" -> (Scenario.fig1 ~cfg ()).Scenario.f1_sim
  | "fig2" -> (Scenario.fig2 ~cfg ()).Scenario.f2_sim
  | "fig3" -> (Scenario.fig3 ~cfg ()).Scenario.f3_sim
  | "fig4" -> (Scenario.fig4 ~cfg ()).Scenario.f4_sim
  | "fig5" -> (Scenario.fig5 ~cfg ()).Scenario.f5_sim
  | "fig6" -> (fst (Scenario.fig6 ~cfg ())).Scenario.f5_sim
  | s -> Fmt.failwith "unknown scenario %S (try fig1..fig6)" s

type fault = F_none | F_crash | F_partition

(* Fault injection armed on collector activity: the first engine step
   that sees a back trace without an outcome fires the fault, so the
   crash/partition lands mid-trace rather than at a wall-clock guess. *)
let inject_fault sim fault =
  let eng = sim.Sim.eng in
  let fired = ref false in
  let when_tracing f =
    Engine.add_step_watcher eng (fun () ->
        if
          (not !fired)
          && List.exists
               (fun (_, st) -> st.Back_trace.ts_outcome = None)
               (Back_trace.stats (Collector.back sim.Sim.col))
        then begin
          fired := true;
          f ()
        end)
  in
  match fault with
  | F_none -> ()
  | F_crash -> when_tracing (fun () -> Engine.crash eng (Site_id.of_int 2))
  | F_partition ->
      when_tracing (fun () -> Engine.partition eng [ [ Site_id.of_int 0 ] ])

let audit_one ~fault ~rounds ~sanitize name =
  (* Profiler on: schedule-neutral, and its cost ledger becomes audit
     evidence — trace-involved verdicts arrive priced. *)
  let sim =
    scenario_sim ~cfg:{ scenario_cfg with Config.profile = true } name
  in
  let eng = sim.Sim.eng in
  attach_journal eng;
  Engine.attach_tracer eng (Tracer.create ());
  let san =
    if sanitize then begin
      let san = Dgc_sanitize.Sanitizer.install eng in
      Dgc_sanitize.Sanitizer.set_shared san (Collector.back sim.Sim.col);
      Some san
    end
    else None
  in
  inject_fault sim fault;
  Sim.start sim;
  Sim.run_rounds sim rounds;
  (* dgc-san journals a lost-trace proof when it proves one; the audit
     reads the journal, so its Trace_incomplete verdicts cite it. *)
  Option.iter (fun san -> ignore (Dgc_sanitize.Sanitizer.check_leaks san)) san;
  let report = Obs.Audit.run sim.Sim.col in
  say "---- %s -------------------------------------------------------" name;
  say "%a" Obs.Audit.pp report;
  (name, report)

let run_audit scenarios fault rounds strict sanitize out =
  let names = match scenarios with [] -> all_figs | l -> l in
  let reports =
    List.map (fun n -> audit_one ~fault ~rounds ~sanitize n) names
  in
  Option.iter
    (fun path ->
      Json.write_file ~path
        (Json.Obj
           (List.map (fun (n, r) -> (n, Obs.Audit.to_json r)) reports));
      say "wrote audit report to %s" path)
    out;
  let failures =
    List.concat_map
      (fun (n, r) ->
        List.map (fun f -> n ^ ": " ^ f) (Obs.Audit.strict_failures r))
      reports
  in
  let survived =
    List.fold_left
      (fun acc (_, r) -> acc + List.length r.Obs.Audit.rp_components)
      0 reports
  in
  say "";
  say "audit: %d scenarios, %d surviving components, %d unexplained"
    (List.length reports) survived (List.length failures);
  List.iter (fun f -> say "  FAIL %s" f) failures;
  if strict && failures <> [] then 1 else 0

let run_inspect scenario rounds out =
  let sim = scenario_sim scenario in
  let eng = sim.Sim.eng in
  attach_journal eng;
  Engine.attach_tracer eng (Tracer.create ());
  Scenario.settle sim ~rounds:2;
  let before = Obs.Snapshot.take sim.Sim.col in
  Sim.start sim;
  Sim.run_rounds sim rounds;
  let after = Obs.Snapshot.take sim.Sim.col in
  say "== %s settled, before the trace schedule ==" scenario;
  say "%a" Obs.Snapshot.pp before;
  say "";
  say "== after %d trace rounds ==" rounds;
  say "%a" Obs.Snapshot.pp after;
  let changes = Obs.Snapshot.diff before after in
  say "";
  say "== diff: %d changes ==" (List.length changes);
  List.iter (fun c -> say "  %a" Obs.Snapshot.pp_change c) changes;
  Option.iter
    (fun path ->
      Json.write_file ~path
        (Json.Obj
           [
             ("schema", Json.Str "dgc.inspect/1");
             ("scenario", Json.Str scenario);
             ("before", Obs.Snapshot.to_json before);
             ("after", Obs.Snapshot.to_json after);
           ]);
      say "wrote snapshots to %s" path)
    out;
  0

(* --- profile subcommand: the lib/profile cost profiler ------------------ *)

let run_profile scenario rounds out folded unit_ =
  let cfg = { scenario_cfg with Config.profile = true } in
  let sim = scenario_sim ~cfg scenario in
  let eng = sim.Sim.eng in
  Sim.start sim;
  Sim.run_rounds sim rounds;
  match Engine.profile eng with
  | None ->
      say "no profiler attached (unexpected with profile = true)";
      2
  | Some p ->
      let name = "profile-" ^ scenario in
      let ledger = Back_trace.ledger_rows (Collector.back sim.Sim.col) in
      let doc = Prof.to_json ~name ~ledger p in
      let valid = Prof.validate doc in
      (match valid with
      | Ok () -> say "profile: schema-valid %s document" Prof.schema
      | Error e -> say "profile: VALIDATION FAILED: %s" e);
      Json.write_file ~path:out doc;
      say "wrote %s artifact to %s" Prof.schema out;
      Option.iter
        (fun path ->
          write_text ~path (Prof.to_folded ?unit_ p);
          say "wrote folded stacks to %s (render: flamegraph.pl %s > prof.svg)"
            path path)
        folded;
      let r = Ledg.rollup ledger in
      say
        "ledger: %d traces (%d garbage, %d live), %d msgs, %d bytes, %d frames"
        r.Ledg.r_traces r.Ledg.r_collected r.Ledg.r_live r.Ledg.r_msgs
        r.Ledg.r_bytes r.Ledg.r_frames;
      if r.Ledg.r_collected > 0 then
        say "  per collected cycle: %.3f msgs, %.3f bytes"
          (float_of_int r.Ledg.r_msgs_per_cycle_milli /. 1000.)
          (float_of_int r.Ledg.r_bytes_per_cycle_milli /. 1000.);
      (match valid with Ok () -> 0 | Error _ -> 1)

let profile_cmd =
  let doc =
    "run a figure scenario with the deterministic sim-cost profiler \
     attached and export the $(b,dgc.profile/1) artifact (work units per \
     phase scope, per-back-trace cost ledger) and flamegraph.pl folded \
     stacks"
  in
  let scenario =
    Arg.(
      value & opt string "fig2"
      & info [ "scenario" ] ~doc:"Scenario: $(b,fig1)..$(b,fig6).")
  in
  let rounds =
    Arg.(
      value & opt int 8
      & info [ "rounds" ] ~doc:"Local-trace rounds to run before exporting.")
  in
  let out =
    Arg.(
      value
      & opt string "dgc_profile.json"
      & info [ "out"; "o" ] ~doc:"$(b,dgc.profile/1) artifact output path.")
  in
  let folded =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ]
          ~doc:
            "Write flamegraph.pl-compatible folded stacks here (render with \
             $(b,flamegraph.pl FILE > prof.svg), or import the file into \
             any viewer that reads collapsed stacks).")
  in
  let unit_ =
    Arg.(
      value
      & opt (some string) None
      & info [ "unit" ]
          ~doc:
            "Weight the folded stacks by this work unit (e.g. \
             $(b,events), $(b,visits), $(b,bytes_sent)); default is the sum \
             over all units.")
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const run_profile $ scenario $ rounds $ out $ folded $ unit_)

(* --- chaos subcommand: fault-plan campaigns ----------------------------- *)

module Chaos = Dgc_chaos

let print_chaos_outcome oc =
  let open Chaos.Campaign in
  match oc.oc_failure with
  | None ->
      say "PASS %s (%d fault windows, %.0fs simulated)" oc.oc_case.cs_name
        oc.oc_injected oc.oc_sim_seconds
  | Some f -> say "FAIL %s: %s" oc.oc_case.cs_name (failure_to_string f)

let write_chaos_artifact ~out json =
  Json.write_file ~path:out json;
  say "wrote chaos artifact to %s" out

(* Replay one plan file against a workload; the bit-determinism surface
   (same --workload/--seed/--plan ⇒ byte-identical --out artifact). *)
let chaos_replay ~tweak ~workload ~seed ~horizon_ms ~shrink ~out path =
  match Result.bind (Json.read_file ~path) Chaos.Plan.of_json with
  | Error m ->
      say "cannot load plan %s: %s" path m;
      2
  | Ok plan ->
      let case =
        {
          Chaos.Campaign.cs_name = Printf.sprintf "%s-%d" workload seed;
          cs_workload = workload;
          cs_seed = seed;
          cs_horizon_ms = horizon_ms;
          cs_plan = plan;
        }
      in
      say "chaos: replaying %s (%d events) against %s, seed %d" path
        (Chaos.Plan.length plan) workload seed;
      let oc = Chaos.Campaign.run_case ~tweak case in
      print_chaos_outcome oc;
      let shrunk =
        match oc.Chaos.Campaign.oc_failure with
        | Some f when shrink ->
            let p, replays = Chaos.Campaign.shrink_case ~tweak case f in
            say "shrunk to %d fault events in %d replays:" (Chaos.Plan.length p)
              replays;
            say "%a" Chaos.Plan.pp p;
            Some (p, replays)
        | _ -> None
      in
      Option.iter
        (fun out -> write_chaos_artifact ~out (Chaos.Campaign.artifact ?shrunk oc))
        out;
      if Option.is_none oc.Chaos.Campaign.oc_failure then 0 else 1

let chaos_campaign ~tweak ~workload ~seed ~cases ~horizon_ms ~events ~out () =
  if not (Chaos.Workloads.mem workload) then begin
    say "unknown workload %S (try %s)" workload
      (String.concat ", " Chaos.Workloads.names);
    2
  end
  else begin
    say "chaos: %d seeded plans x %s, horizon %.0fms, %d events each" cases
      workload horizon_ms events;
    let seeds = List.init cases (fun i -> seed + i) in
    let s =
      Chaos.Campaign.run ~tweak ~workload ~seeds ~horizon_ms
        ~events_per_plan:events ()
    in
    List.iter print_chaos_outcome s.Chaos.Campaign.sm_outcomes;
    List.iter
      (fun (oc, p, replays) ->
        let case = oc.Chaos.Campaign.oc_case in
        say "reproducer for %s (%d events, %d replays):"
          case.Chaos.Campaign.cs_name (Chaos.Plan.length p) replays;
        say "%a" Chaos.Plan.pp p;
        Option.iter
          (fun prefix ->
            let path =
              Printf.sprintf "%s.%s.json" prefix case.Chaos.Campaign.cs_name
            in
            Json.write_file ~path (Chaos.Plan.to_json p);
            say "wrote reproducer plan to %s" path;
            write_chaos_artifact ~out:(prefix ^ "." ^ case.Chaos.Campaign.cs_name ^ ".artifact.json")
              (Chaos.Campaign.artifact ~shrunk:(p, replays) oc))
          out)
      s.Chaos.Campaign.sm_failures;
    let failed = List.length s.Chaos.Campaign.sm_failures in
    say "chaos: %d/%d cases passed" (cases - failed) cases;
    if failed = 0 then 0 else 1
  end

(* The deterministic CI smoke campaign: tiny fixed plans over two
   contrasting workloads; everything must stay safe and complete. *)
let chaos_smoke ~tweak () =
  let ok =
    List.for_all
      (fun (w, seeds) ->
        let s =
          Chaos.Campaign.run ~tweak ~shrink:false ~workload:w ~seeds
            ~horizon_ms:30_000. ~events_per_plan:3 ()
        in
        List.iter print_chaos_outcome s.Chaos.Campaign.sm_outcomes;
        s.Chaos.Campaign.sm_failures = [])
      [ ("fig1", [ 1; 2 ]); ("ring", [ 3 ]) ]
  in
  if ok then begin
    say "chaos smoke: all cases safe and complete";
    0
  end
  else 1

let run_chaos workload seed cases horizon_ms events plan out shrink broken
    sanitize no_timeouts no_oracle smoke =
  let tweak cfg =
    let cfg =
      if broken then { cfg with Config.enable_transfer_barrier = false }
      else cfg
    in
    let cfg = if sanitize then { cfg with Config.sanitize = true } else cfg in
    let cfg =
      if no_timeouts then { cfg with Config.enable_timeouts = false } else cfg
    in
    if no_oracle then { cfg with Config.oracle_checks = false } else cfg
  in
  if smoke then chaos_smoke ~tweak ()
  else
    match plan with
    | Some path ->
        chaos_replay ~tweak ~workload ~seed ~horizon_ms ~shrink ~out path
    | None ->
        chaos_campaign ~tweak ~workload ~seed ~cases ~horizon_ms ~events ~out
          ()

let chaos_cmd =
  let doc =
    "run deterministic fault-plan campaigns: seeded chaos schedules \
     (crashes, partitions, drop/dup bursts, latency storms) against a \
     workload, with oracle safety checked at every sweep, completeness \
     demanded after quiescence, and failing plans shrunk to minimal \
     reproducers"
  in
  let workload =
    Arg.(
      value
      & opt string "churn"
      & info [ "workload" ]
          ~doc:
            "Workload: $(b,fig1)..$(b,fig6), $(b,race), $(b,ring), \
             $(b,hypertext), $(b,churn).")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~doc:"Base seed (campaign uses seed, seed+1, ...).")
  in
  let cases =
    Arg.(
      value & opt int 5
      & info [ "cases" ] ~doc:"Seeded plans to run in campaign mode.")
  in
  let horizon =
    Arg.(
      value
      & opt float 60_000.
      & info [ "horizon-ms" ] ~doc:"Chaos-phase length in simulated ms.")
  in
  let events =
    Arg.(
      value & opt int 4
      & info [ "events" ] ~doc:"Fault windows per generated plan.")
  in
  let plan =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan" ]
          ~doc:
            "Replay this $(b,dgc.plan/1) JSON file instead of generating \
             plans.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ]
          ~doc:
            "Replay: write the $(b,dgc.chaos/1) artifact here. Campaign: \
             prefix for reproducer plans/artifacts of failing cases.")
  in
  let shrink =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:"On replay failure, shrink the plan to a minimal reproducer.")
  in
  let broken =
    Arg.(
      value & flag
      & info [ "broken-transfer-barrier" ]
          ~doc:
            "Plant the §6.1 bug: disable the transfer barrier, so the \
             campaign must catch the resulting unsafe sweep.")
  in
  let sanitize =
    Arg.(
      value & flag
      & info [ "sanitize" ]
          ~doc:
            "Run dgc-san inside every case: harmful races and proved lost \
             traces become first-class campaign failures (and shrink like \
             any other).")
  in
  let no_timeouts =
    Arg.(
      value & flag
      & info [ "no-timeouts" ]
          ~doc:
            "Plant the §4.6 bug: never arm call timeouts or visited TTLs, \
             so a crash mid-trace loses the trace forever.")
  in
  let no_oracle =
    Arg.(
      value & flag
      & info [ "no-oracle" ]
          ~doc:
            "Disable the oracle's per-sweep safety check; useful with \
             $(b,--sanitize) to let dgc-san be the detector that catches a \
             planted defect.")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"Run the small fixed CI campaign (fig1 + ring) and exit.")
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const run_chaos $ workload $ seed $ cases $ horizon $ events $ plan
      $ out $ shrink $ broken $ sanitize $ no_timeouts $ no_oracle $ smoke)

(* --- cmdliner ----------------------------------------------------------- *)

let opts_term =
  let open Term in
  let sites =
    Arg.(value & opt int 4 & info [ "sites" ] ~doc:"Number of sites.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let workload =
    Arg.(
      value
      & opt string "ring"
      & info [ "workload" ]
          ~doc:"Workload: $(b,ring), $(b,clique), $(b,hypertext), $(b,random).")
  in
  let span =
    Arg.(
      value & opt int 3
      & info [ "span" ] ~doc:"Sites spanned by ring/clique workloads.")
  in
  let per_site =
    Arg.(
      value & opt int 2
      & info [ "per-site" ] ~doc:"Objects per site (ring), pages (hypertext).")
  in
  let delta =
    Arg.(value & opt int 3 & info [ "delta" ] ~doc:"Suspicion threshold Δ.")
  in
  let threshold2 =
    Arg.(value & opt int 6 & info [ "threshold2" ] ~doc:"Back threshold Δ2.")
  in
  let interval =
    Arg.(
      value & opt float 10.
      & info [ "interval" ] ~doc:"Seconds between local traces.")
  in
  let window =
    Arg.(
      value & opt float 0.
      & info [ "window" ] ~doc:"Local-trace window seconds (0 = atomic).")
  in
  let drop =
    Arg.(
      value & opt float 0.
      & info [ "drop" ] ~doc:"Collector-message drop probability.")
  in
  let churn =
    Arg.(value & opt int 0 & info [ "churn" ] ~doc:"Mutator agents to run.")
  in
  let minutes =
    Arg.(
      value & opt float 10. & info [ "minutes" ] ~doc:"Simulated minutes.")
  in
  let crash =
    Arg.(
      value
      & opt (some int) None
      & info [ "crash" ] ~doc:"Crash this site id for the whole run.")
  in
  let collector =
    let kinds =
      [
        ("back", Back_tracing);
        ("global", Global);
        ("hughes", Hughes_ts);
        ("group", Group);
        ("migration", Migrate);
      ]
    in
    Arg.(
      value
      & opt (enum kinds) Back_tracing
      & info [ "collector" ]
          ~doc:"Collector: $(b,back), $(b,global), $(b,hughes), $(b,group), \
                $(b,migration).")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ] ~doc:"Dump all counters and histograms.")
  in
  let dot =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~doc:"Write the final object graph as Graphviz dot.")
  in
  let journal =
    Arg.(
      value & opt int 0
      & info [ "journal" ]
          ~doc:"Print the journal's last N events after the run (the \
                journal itself is always recorded).")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Attach the deterministic sim-cost profiler; artifact-writing \
             commands embed its $(b,dgc.profile/1) section. Schedules are \
             event-identical with or without it.")
  in
  let make o_sites o_seed o_workload o_span o_per_site o_delta o_threshold2
      o_interval o_window o_drop o_churn o_minutes o_crash o_collector
      o_verbose o_dot o_journal o_profile =
    {
      o_sites;
      o_seed;
      o_workload;
      o_span;
      o_per_site;
      o_delta;
      o_threshold2;
      o_interval;
      o_window;
      o_drop;
      o_churn;
      o_minutes;
      o_crash;
      o_collector;
      o_verbose;
      o_dot;
      o_journal;
      o_profile;
    }
  in
  const make $ sites $ seed $ workload $ span $ per_site $ delta $ threshold2
  $ interval $ window $ drop $ churn $ minutes $ crash $ collector $ verbose
  $ dot $ journal $ profile

let dump_flight_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dump-flight" ]
        ~doc:
          "Write the flight recorder's ring dump ($(b,dgc.flight/1) JSON) \
           here after the run, even on success.")

let run_cmd =
  let doc = "run a simulation and print a report (the default command)" in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const (fun o df -> run ?dump_flight:df o) $ opts_term $ dump_flight_arg)

let trace_cmd =
  let doc =
    "record a figure scenario as causal back-trace spans (Chrome \
     trace-event or JSONL). The $(b,chrome) format also merges the \
     engine's time series as Perfetto counter tracks (ph $(b,C) events): \
     in-flight back traces, frames held, retry rates, and per-site \
     $(b,bytes_resident) gauges appear as counter lanes under the spans \
     (labelled series land on their site's pid) when the file is loaded \
     at ui.perfetto.dev"
  in
  let scenario =
    Arg.(
      value & opt string "fig1"
      & info [ "scenario" ]
          ~doc:"Scenario: $(b,fig1), $(b,fig2), $(b,fig6).")
  in
  let out =
    Arg.(
      value
      & opt string "dgc_trace.json"
      & info [ "out"; "o" ] ~doc:"Output path.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("chrome", `Chrome); ("jsonl", `Jsonl) ]) `Chrome
      & info [ "format" ] ~doc:"Output format: $(b,chrome) or $(b,jsonl).")
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run_trace $ scenario $ out $ format)

let metrics_cmd =
  let doc =
    "run a simulation and write a machine-readable run artifact \
     (counters + histogram percentiles) as JSON"
  in
  let out =
    Arg.(
      value
      & opt string "dgc_metrics.json"
      & info [ "out"; "o" ] ~doc:"Artifact output path.")
  in
  let prom =
    Arg.(
      value & flag
      & info [ "prom" ]
          ~doc:
            "Also print the run's time-series (final values) as a strict \
             Prometheus text exposition on stdout.")
  in
  let prom_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom-out" ]
          ~doc:
            "Write the Prometheus text exposition to this file (implies the \
             same content as $(b,--prom), independent of it).")
  in
  Cmd.v (Cmd.info "metrics" ~doc)
    Term.(
      const (fun o out prom prom_out df ->
          run ~artifact:out ~prom ?prom_out ?dump_flight:df o)
      $ opts_term $ out $ prom $ prom_out $ dump_flight_arg)

let audit_cmd =
  let doc =
    "explain every surviving garbage cycle: cross-reference oracle ground \
     truth with span log, journal and table state to assign each garbage \
     component a why-not-collected verdict"
  in
  let scenarios =
    Arg.(
      value & opt_all string []
      & info [ "scenario" ]
          ~doc:
            "Scenario to audit ($(b,fig1)..$(b,fig6)); repeatable. Default: \
             all six figures.")
  in
  let fault =
    Arg.(
      value
      & opt
          (enum
             [ ("none", F_none); ("crash", F_crash); ("partition", F_partition) ])
          F_none
      & info [ "fault" ]
          ~doc:
            "Fault to inject mid-trace: $(b,none), $(b,crash) (site 2 goes \
             down when the first back trace is in flight), or \
             $(b,partition) (site 0 is isolated).")
  in
  let rounds =
    Arg.(
      value & opt int 8
      & info [ "rounds" ] ~doc:"Local-trace rounds to run before auditing.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Exit non-zero if any surviving component is Unexplained or \
             carries no evidence.")
  in
  let sanitize =
    Arg.(
      value & flag
      & info [ "sanitize" ]
          ~doc:
            "Run dgc-san alongside the audit: its lost-trace proofs go to \
             the journal, and Trace_incomplete verdicts cite them as \
             evidence.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~doc:"Write the audit reports as JSON.")
  in
  Cmd.v (Cmd.info "audit" ~doc)
    Term.(
      const run_audit $ scenarios $ fault $ rounds $ strict $ sanitize $ out)

let inspect_cmd =
  let doc =
    "snapshot a scenario's collector state (tables, distances, thresholds, \
     frames, barriers, memo stats) before and after trace rounds, and diff"
  in
  let scenario =
    Arg.(
      value & opt string "fig1"
      & info [ "scenario" ] ~doc:"Scenario: $(b,fig1)..$(b,fig6).")
  in
  let rounds =
    Arg.(
      value & opt int 4
      & info [ "rounds" ] ~doc:"Local-trace rounds between the snapshots.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~doc:"Write both snapshots as JSON.")
  in
  Cmd.v (Cmd.info "inspect" ~doc)
    Term.(const run_inspect $ scenario $ rounds $ out)

let cmd =
  let doc = "simulate distributed cyclic garbage collection by back tracing" in
  Cmd.group ~default:Term.(const (fun o -> run o) $ opts_term)
    (Cmd.info "dgc-sim" ~doc)
    [
      run_cmd;
      trace_cmd;
      metrics_cmd;
      profile_cmd;
      audit_cmd;
      inspect_cmd;
      chaos_cmd;
    ]

let () = exit (Cmd.eval' cmd)
