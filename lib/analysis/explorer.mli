(** Delay-bounded exploration of event-queue interleavings.

    The engine normally drains its queue in (time, seq) order. A
    {e schedule} is a list of deviations [(step, rank)]: at event
    number [step] of the run, execute the rank-th enabled event
    instead of the earliest. Exploration is a DFS over such lists,
    bounded by {!bounds} — at most [depth_bound] deviations per
    schedule, ranks below [width], [max_steps] events per run and
    [max_schedules] runs in total.

    Replay is from scratch: the simulation is deterministic from its
    seed, so a schedule fully determines a run and no engine state is
    ever snapshotted. The §6.1 invariant battery (and any
    [extra] check the SUT supplies) runs after every step; the first
    violating schedule is minimized with {!Shrink.minimize} into a
    reproducer. *)

open Dgc_core

type instance = {
  i_sim : Sim.t;
  i_check : unit -> string list;  (** violation messages; [] = clean *)
}

type sut = {
  sut_name : string;
  sut_desc : string;
  sut_make : unit -> instance;  (** build and arm; the explorer drives *)
}

val instance : ?extra:(unit -> string list) -> Sim.t -> instance
(** The standard harness: per-step §6.1 invariants via {!Sim.check}
    (window-open sites skipped), then [extra] when those pass. *)

type bounds = {
  depth_bound : int;  (** max deviations per schedule *)
  width : int;  (** ranks considered at each step: 0..width-1 *)
  max_steps : int;  (** events per run *)
  max_schedules : int;  (** exploration budget, excluding shrinking *)
}

val default_bounds : bounds
(** depth 3, width 3, 400 steps, 250 schedules. *)

type run = {
  run_steps : int;
  run_enabled : int array;  (** queue length before each executed step *)
  run_violation : (int * string list) option;
}

val run_schedule :
  ?probe:(instance -> unit) -> sut -> max_steps:int -> Shrink.deviation list -> run
(** Replay one schedule from scratch. Ranks beyond the live queue are
    clamped; oracle safety exceptions and [Invariants.Violation] are
    converted into run violations. [probe] sees the freshly built
    instance before the first step — the fuzzer attaches its coverage
    taps (conformance observer, journal tap) through it. *)

type counterexample = {
  cx_schedule : Shrink.deviation list;  (** as first found *)
  cx_shrunk : Shrink.deviation list;  (** minimized reproducer *)
  cx_step : int;  (** violating step of the shrunk run *)
  cx_messages : string list;
}

type result = {
  res_sut : string;
  res_schedules : int;
  res_total_steps : int;
  res_shrink_runs : int;
  res_counterexample : counterexample option;
}

val clean : result -> bool
val pp_result : Format.formatter -> result -> unit

val explore : ?bounds:bounds -> sut -> result
(** DFS from the FIFO schedule; children of a clean run deviate at a
    step after the parent's last deviation (each deviation list is
    visited once). Stops at the first violation and shrinks it. *)
