(** The coverage-guided fuzz driver.

    Each execution runs one {!Input.t} against the real system — plan
    inputs through {!Dgc_chaos.Campaign.run_case}, schedule inputs
    through {!Dgc_analysis.Explorer.run_schedule} — with two passive
    coverage taps subscribed to the engine through the probe hooks:
    the protocol tap ({!Conformance} automaton state after each
    delivery, crossed with the injector's
    {!Dgc_chaos.Inject.active_mask}) and the journal tap (category
    crossed with the fault mask and the last automaton state). The hit
    set feeds the global {!Coverage} map; inputs that light new edges
    join the {!Pool}, future inputs are mutations of
    rarity-weighted pool picks, and failing inputs are ddmin-shrunk
    and promoted into the regression corpus keyed by (failure kind,
    coverage signature).

    Everything — input choice, mutation, execution — is a pure
    function of [o_seed], so a campaign is replayable and its
    ["dgc.fuzz/1"] artifact byte-stable. *)

type opts = {
  o_name : string;
  o_seed : int;
  o_execs : int;  (** execution budget *)
  o_cov_size : int;  (** coverage bitmap slots *)
  o_workloads : string list;  (** plan-input targets; [] = none *)
  o_suts : string list;  (** schedule-input targets; [] = none *)
  o_tweaks : string list;  (** config tweaks armed on every plan run *)
  o_horizon_ms : float;  (** plan-run chaos horizon *)
  o_events : int;  (** fault windows per fresh random plan *)
  o_max_steps : int;  (** schedule-run step bound *)
  o_width : int;  (** deviation ranks: 1..width *)
  o_stop_on : string list;
      (** failure kinds; stop early once every listed kind was found *)
  o_promote_dir : string option;
      (** write shrunk reproducers into this corpus directory *)
  o_corpus : Input.t list;  (** seed inputs to warm the pool with *)
}

val default_opts : opts
(** seed 1, 48 execs, 16384 slots, churn + fig2 workloads, no suts,
    no tweaks, 20s horizon, 3 events, 400 steps, width 3,
    no stop set, no promotion, cold corpus. *)

val run : opts -> Report.t
(** The guided campaign. *)

val baseline : opts -> Report.t
(** The same budget spent on uniform-random fresh inputs: no corpus,
    no mutation, no promotion — the control arm the guided run's
    final hit count is compared against. *)

val with_baseline : opts -> Report.t
(** {!run}, then {!baseline} under the same options, merged: the
    guided report carrying the random arm's (execs, hits). *)
