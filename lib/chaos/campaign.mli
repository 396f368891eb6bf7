(** The chaos-campaign driver.

    A {!case} names a workload, a seed, a horizon and a {!Plan.t}; the
    driver builds the workload, arms the plan, runs the horizon with
    the oracle checking every sweep, then closes all fault windows and
    demands completeness: [Sim.collect_all] must reach zero garbage,
    the §6.1 invariant battery and the oracle's table-integrity check
    must both come back clean. Any deviation is a {!failure}; on
    failure the plan can be shrunk (ddmin over its windows, via
    [Dgc_analysis.Shrink]) to a minimal reproducer.

    Everything is a pure function of the case (plus the optional
    config tweak), so outcomes — including the ["dgc.chaos/1"]
    artifact with the full journal — are bit-reproducible. A case
    pays for rendering its run artifact and journal only when they
    are read ({!outcome}'s lazy fields, {!artifact}). *)

module Json := Dgc_telemetry.Json

type failure =
  | Safety of string  (** oracle caught an unsafe sweep mid-run *)
  | Liveness of int
      (** garbage objects surviving after quiescence and
          [collect_all] *)
  | Invariant of string  (** §6.1 invariant battery violation *)
  | Table of string  (** ioref-table referential integrity violation *)
  | Race of string
      (** dgc-san: a causally-concurrent transfer/trace conflict with
          no barrier protection (runs only when [cfg.sanitize]) *)
  | Leak of string
      (** dgc-san: a lost trace — resident frames/memo with no message
          in flight and no armed timer (runs only when
          [cfg.sanitize]) *)

val failure_to_string : failure -> string

val failure_kind : failure -> string
(** The constructor name alone: ["safety"], ["liveness"], ["invariant"],
    ["table"], ["race"], ["leak"] — the vocabulary corpus files use in
    their ["expect"] field and the fuzzer uses as dedup/stop keys. *)

type case = {
  cs_name : string;
  cs_workload : string;  (** a {!Workloads.names} entry *)
  cs_seed : int;
  cs_horizon_ms : float;  (** chaos phase length *)
  cs_plan : Plan.t;
}

type outcome = {
  oc_case : case;
  oc_failure : failure option;
  oc_sim_seconds : float;
  oc_injected : int;  (** fault windows actually opened *)
  oc_sanitizer : string;
      (** dgc-san status of this run: ["off"] (not requested) or
          ["on"] (armed, its verdicts were live failure detectors).
          Also carried in the ["dgc.chaos/1"] artifact's outcome
          section. *)
  oc_journal : string list Lazy.t;
      (** rendered journal, oldest first; rendered when first forced *)
  oc_counters : (string * int) list;  (** sorted *)
  oc_run : Json.t Lazy.t;
      (** embedded ["dgc.run/1"] artifact with audit; rendered when
          first forced. The audit, profile and sanitizer sections are
          built when the case ends; forcing renders the counters,
          histograms and series from the case engine's metrics and
          series registries, which the campaign no longer writes once
          {!run_case} has returned. Neither lazy value holds the
          engine or the journal ring, so a kept outcome costs no
          more than a rendered one. *)
  oc_flight : Json.t option;
      (** ["dgc.flight/1"] ring dump, captured automatically iff the
          case failed — the causal tail (sends, drops with reasons,
          faults, journal lines, span edges) of the failing window.
          Deterministic like everything else here, so a replay of the
          same case produces a byte-identical dump. *)
}

val schema : string
(** ["dgc.chaos/1"]. *)

val base_cfg : case -> Dgc_rts.Config.t
(** The campaign configuration for a case: the case's workload site
    count and seed, 10s trace intervals, millisecond latencies,
    [retry_limit = 2] (the hardened delivery defaults), oracle checks
    on. [run_case]'s [tweak] post-processes it. *)

type probe = {
  pb_eng : Dgc_rts.Engine.t;
  pb_col : Dgc_core.Collector.t;
  pb_inject : Inject.t;
}
(** What a {!run_case} probe sees: the live engine (with the campaign's
    journal and tracer attached), its collector and the armed injector
    — enough to subscribe coverage taps or other observers and poll
    {!Inject.active_mask}. *)

val run_case :
  ?tweak:(Dgc_rts.Config.t -> Dgc_rts.Config.t) ->
  ?probe:(probe -> unit) ->
  case ->
  outcome
(** Deterministic: same case (and tweak) ⇒ identical outcome,
    including journal and counters. [probe] fires once, after the plan
    is armed and before the horizon runs; a probe that only observes
    (no scheduling, no rng draws) preserves determinism. *)

val shrink_case :
  ?tweak:(Dgc_rts.Config.t -> Dgc_rts.Config.t) ->
  case ->
  failure ->
  Plan.t * int
(** Minimize the case's plan while [run_case] keeps failing with the
    same failure constructor; returns the minimal plan and the number
    of replays spent. The input case must reproduce. *)

val artifact : ?shrunk:Plan.t * int -> outcome -> Json.t
(** The ["dgc.chaos/1"] document (forces [oc_run] and [oc_journal]):
    case, plan, outcome, journal, the
    embedded run artifact (now carrying a ["series"] section), the
    ["flight"] dump when the case failed, and the shrunk plan when
    given. *)

val validate : Json.t -> (unit, string) result
(** The ["dgc.chaos/1"] decoder: case, outcome and journal present,
    the plan section a valid plan, the run section a valid run
    artifact ({!Dgc_profile.Profile.validate_run}), the flight section,
    when present, a valid dump. *)

type summary = {
  sm_outcomes : outcome list;
  sm_failures : (outcome * Plan.t * int) list;
      (** failed outcomes with their (shrunk) plans and replay counts *)
}

val run :
  ?tweak:(Dgc_rts.Config.t -> Dgc_rts.Config.t) ->
  ?shrink:bool ->
  workload:string ->
  seeds:int list ->
  horizon_ms:float ->
  events_per_plan:int ->
  unit ->
  summary
(** One {!Plan.random} per seed (the seed also drives the workload and
    engine), [run_case] on each; failures are shrunk unless
    [~shrink:false]. *)
