open Dgc_prelude
open Dgc_simcore
open Dgc_rts
open Dgc_core
open Dgc_workload
module Tel = Dgc_telemetry
module Json = Tel.Json
module Oracle = Dgc_oracle.Oracle
module Audit = Dgc_observe.Audit
module Shrink = Dgc_analysis.Shrink

type failure =
  | Safety of string
  | Liveness of int
  | Invariant of string
  | Table of string
  | Race of string
  | Leak of string

let failure_to_string = function
  | Safety m -> "safety: " ^ m
  | Liveness n -> Printf.sprintf "liveness: %d garbage objects survived" n
  | Invariant m -> "invariant: " ^ m
  | Table m -> "table: " ^ m
  | Race m -> "race: " ^ m
  | Leak m -> "leak: " ^ m

let failure_kind = function
  | Safety _ -> "safety"
  | Liveness _ -> "liveness"
  | Invariant _ -> "invariant"
  | Table _ -> "table"
  | Race _ -> "race"
  | Leak _ -> "leak"

let same_kind a b =
  match (a, b) with
  | Safety _, Safety _
  | Liveness _, Liveness _
  | Invariant _, Invariant _
  | Table _, Table _
  | Race _, Race _
  | Leak _, Leak _ ->
      true
  | (Safety _ | Liveness _ | Invariant _ | Table _ | Race _ | Leak _), _ ->
      false

type case = {
  cs_name : string;
  cs_workload : string;
  cs_seed : int;
  cs_horizon_ms : float;
  cs_plan : Plan.t;
}

type outcome = {
  oc_case : case;
  oc_failure : failure option;
  oc_sim_seconds : float;
  oc_injected : int;
  oc_sanitizer : string;
      (** ["off"] or ["on"] *)
  oc_journal : string list Lazy.t;
  oc_counters : (string * int) list;
  oc_run : Json.t Lazy.t;
  oc_flight : Json.t option;
      (** [dgc.flight/1] dump, captured iff the case failed *)
}

type probe = {
  pb_eng : Dgc_rts.Engine.t;
  pb_col : Collector.t;
  pb_inject : Inject.t;
}

let schema = "dgc.chaos/1"

let base_cfg case =
  {
    Config.default with
    Config.n_sites = Workloads.sites case.cs_workload;
    seed = case.cs_seed;
    trace_interval = Sim_time.of_seconds 10.;
    trace_jitter = Sim_time.of_seconds 2.;
    trace_duration = Sim_time.zero;
    delta = 3;
    threshold2 = 6;
    threshold_bump = 4;
    latency = Latency.Uniform (Sim_time.of_millis 1., Sim_time.of_millis 20.);
    retry_limit = 2;
    oracle_checks = true;
  }

let run_case ?(tweak = fun c -> c) ?probe case =
  let cfg = tweak (base_cfg case) in
  let wrng = Rng.create ~seed:((case.cs_seed * 7) + 1) in
  let spec = Workloads.build ~name:case.cs_workload ~cfg ~rng:wrng in
  let sim = spec.Workloads.sim in
  let eng = sim.Sim.eng in
  let journal = Journal.create ~capacity:8192 () in
  Engine.attach_journal eng journal;
  Engine.attach_tracer eng (Tel.Tracer.create ());
  (* dgc-san rides along when the (tweaked) config asks for it; the
     detectors' verdicts become first-class failures below, so ddmin
     shrinks race and leak reports like any other. *)
  let san, sanitizer_status =
    if cfg.Config.sanitize then begin
      let s = Dgc_sanitize.Sanitizer.install eng in
      Dgc_sanitize.Sanitizer.set_shared s (Collector.back sim.Sim.col);
      (Some s, "on")
    end
    else (None, "off")
  in
  if not spec.Workloads.settled then Scenario.settle sim ~rounds:5;
  Sim.start sim;
  let inj = Inject.arm eng case.cs_plan in
  (match probe with
  | Some f -> f { pb_eng = eng; pb_col = sim.Sim.col; pb_inject = inj }
  | None -> ());
  let failure = ref None in
  let catchf f =
    try f () with
    | Oracle.Safety_violation m -> failure := Some (Safety m)
    | Invariants.Violation vs ->
        failure :=
          Some
            (Invariant
               (match Invariants.strings vs with v :: _ -> v | [] -> "?"))
  in
  catchf (fun () -> Sim.run_for sim (Sim_time.of_millis case.cs_horizon_ms));
  Inject.quiesce inj;
  spec.Workloads.stop ();
  if Option.is_none !failure then
    catchf (fun () ->
        (* grace: parked base messages land, in-flight travels finish *)
        Sim.run_for sim (Sim_time.of_minutes 1.);
        if not (Sim.collect_all sim ~max_rounds:80 ()) then
          failure := Some (Liveness (Oracle.garbage_count eng))
        else begin
          Scenario.settle sim ~rounds:6;
          (match Invariants.strings (Invariants.check_all eng) with
          | v :: _ -> failure := Some (Invariant v)
          | [] -> ());
          if Option.is_none !failure then
            match Oracle.table_violations eng with
            | v :: _ -> failure := Some (Table v)
            | [] -> ()
        end);
  (* The sanitizer's verdicts outrank the liveness/table judgments — a
     proved lost trace explains a liveness miss better than a garbage
     count — but never a safety or invariant exception. *)
  (match san with
  | Some s
    when (match !failure with
         | None | Some (Liveness _) | Some (Table _) -> true
         | Some _ -> false) -> (
      ignore (Dgc_sanitize.Sanitizer.check_leaks s);
      match
        ( Dgc_sanitize.Sanitizer.harmful_races s,
          Dgc_sanitize.Sanitizer.leaks s )
      with
      | r :: _, _ ->
          failure := Some (Race (Dgc_sanitize.Sanitizer.race_message r))
      | [], l :: _ ->
          failure := Some (Leak (Dgc_sanitize.Sanitizer.leak_message l))
      | [], [] -> ())
  | _ -> ());
  let sim_seconds = Sim_time.to_seconds (Engine.now eng) in
  (* On failure, snapshot the always-on flight recorder before anything
     else touches the engine: the rings hold the causally-relevant
     tail — sends, drops with reasons, faults, journal lines, span
     edges — of exactly the window that produced the verdict. *)
  let flight =
    match !failure with
    | None -> None
    | Some f -> Engine.dump_flight eng ~reason:(failure_to_string f)
  in
  let audit = Audit.to_json (Audit.run sim.Sim.col) in
  let extra =
    match san with
    | Some s -> [ ("san", Dgc_sanitize.Sanitizer.to_json s) ]
    | None -> []
  in
  (* Profile embed is wall-free ([wall:false]): campaign artifacts are
     pinned byte-for-byte by tests, and host wall-time is the one
     non-deterministic quantity the profiler holds. *)
  let profile =
    Option.map
      (fun p ->
        Dgc_profile.Profile.to_json ~wall:false ~name:case.cs_name
          ~ledger:(Back_trace.ledger_rows (Collector.back sim.Sim.col))
          p)
      (Engine.profile eng)
  in
  (* Rendered on demand: the closures hold the metrics registry, the
     series, the JSON built above and the journal's entry list, never
     the engine or the journal ring. *)
  let metrics = Engine.metrics eng and series = Engine.series eng in
  let run =
    lazy
      (Tel.Run_artifact.make ~name:case.cs_name ~sim_seconds ~extra ~audit
         ~series ?profile metrics)
  in
  let entries = Journal.entries journal in
  {
    oc_case = case;
    oc_failure = !failure;
    oc_sim_seconds = sim_seconds;
    oc_injected = Inject.injected inj;
    oc_sanitizer = sanitizer_status;
    oc_journal =
      lazy
        (List.map (fun e -> Format.asprintf "%a" Journal.pp_entry e) entries);
    oc_counters =
      List.sort
        (fun (a, _) (b, _) -> String.compare a b)
        (Metrics.counters metrics);
    oc_run = run;
    oc_flight = flight;
  }

let shrink_case ?tweak case failure0 =
  let evs = Array.of_list case.cs_plan.Plan.events in
  let plan_of devs =
    {
      Plan.events =
        List.map (fun (i, _) -> evs.(i)) (List.sort compare devs);
    }
  in
  let reproduces devs =
    match (run_case ?tweak { case with cs_plan = plan_of devs }).oc_failure with
    | Some f -> same_kind f failure0
    | None -> false
  in
  let initial = List.mapi (fun i _ -> (i, 1)) case.cs_plan.Plan.events in
  let devs, replays = Shrink.minimize ~reproduces initial in
  (plan_of devs, replays)

let artifact ?shrunk oc =
  let case = oc.oc_case in
  Json.Obj
    ([
       ("schema", Json.Str schema);
       ( "case",
         Json.Obj
           [
             ("name", Json.Str case.cs_name);
             ("workload", Json.Str case.cs_workload);
             ("seed", Json.Int case.cs_seed);
             ("horizon_ms", Json.Float case.cs_horizon_ms);
           ] );
       ("plan", Plan.to_json case.cs_plan);
       ( "outcome",
         match oc.oc_failure with
         | None ->
             Json.Obj
               [
                 ("status", Json.Str "pass");
                 ("sanitizer", Json.Str oc.oc_sanitizer);
               ]
         | Some f ->
             Json.Obj
               [
                 ("status", Json.Str "fail");
                 ("failure", Json.Str (failure_to_string f));
                 ("sanitizer", Json.Str oc.oc_sanitizer);
               ] );
       ("injected", Json.Int oc.oc_injected);
       ( "journal",
         Json.Arr (List.map (fun s -> Json.Str s) (Lazy.force oc.oc_journal)) );
       ("run", Lazy.force oc.oc_run);
     ]
    @ (match oc.oc_flight with
      | Some f -> [ ("flight", f) ]
      | None -> [])
    @
    match shrunk with
    | None -> []
    | Some (p, replays) ->
        [
          ("shrunk_plan", Plan.to_json p);
          ("shrink_replays", Json.Int replays);
        ])

let validate doc =
  let ( let* ) = Result.bind in
  let section k decode =
    Result.map_error (Printf.sprintf "%s section: %s" k)
      (Result.bind (Json.field k doc) decode)
  in
  let* () = Json.expect_schema schema doc in
  let* _ =
    Json.list_map (fun k -> Json.field k doc) [ "case"; "outcome"; "journal" ]
  in
  let* _ = section "plan" Plan.of_json in
  let* () = section "run" Dgc_profile.Profile.validate_run in
  match Json.member "flight" doc with
  | None -> Ok ()
  | Some f -> Result.map ignore (Tel.Flight.of_json f)

type summary = {
  sm_outcomes : outcome list;
  sm_failures : (outcome * Plan.t * int) list;
}

let run ?tweak ?(shrink = true) ~workload ~seeds ~horizon_ms ~events_per_plan
    () =
  let outcomes =
    List.map
      (fun seed ->
        let rng = Rng.create ~seed in
        let plan =
          Plan.random ~rng ~sites:(Workloads.sites workload) ~horizon_ms
            ~events:events_per_plan
        in
        let case =
          {
            cs_name = Printf.sprintf "%s-%d" workload seed;
            cs_workload = workload;
            cs_seed = seed;
            cs_horizon_ms = horizon_ms;
            cs_plan = plan;
          }
        in
        run_case ?tweak case)
      seeds
  in
  let failures =
    List.filter_map
      (fun oc ->
        match oc.oc_failure with
        | None -> None
        | Some f ->
            if shrink then
              let p, replays = shrink_case ?tweak oc.oc_case f in
              Some (oc, p, replays)
            else Some (oc, oc.oc_case.cs_plan, 0))
      outcomes
  in
  { sm_outcomes = outcomes; sm_failures = failures }
