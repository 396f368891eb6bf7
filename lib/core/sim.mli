(** Top-level assembly: engine + back-tracing collector + mutators.

    The usual lifecycle is
    {[
      let sim = Sim.make ~cfg () in
      (* build an object graph: Dgc_rts.Builder or mutator agents *)
      Sim.start sim;
      Sim.run_rounds sim 12;
      (* inspect: Dgc_oracle.Oracle, Engine.metrics, Back_trace.stats *)
    ]} *)

open Dgc_simcore
open Dgc_rts

type t = {
  eng : Engine.t;
  col : Collector.t;
  muts : Mutator.manager;
}

val make : ?cfg:Config.t -> unit -> t
(** Assemble a simulation. The flight recorder (when
    [cfg.flight_capacity > 0]) is the engine's first subscriber. Under
    [cfg.check_level = Check_step] the next one, on every [Step], runs
    {!Invariants.per_step} after every event
    (skipping sites with an open trace window) and raises
    [Invariants.Violation] on the first inconsistent state. *)

val check : ?settled:bool -> t -> Invariants.violation list
(** Run the invariant battery now, skipping sites mid-window:
    the continuously-maintained checks by default, plus settled-only
    distance sanity with [~settled:true]. *)

val start : t -> unit
(** Begin the periodic local-trace schedule. *)

val run_for : t -> Sim_time.t -> unit
val run_rounds : t -> int -> unit
(** Run until every site has completed that many more local traces
    (bounded internally to avoid spinning if sites are crashed). *)

val collect_all : t -> ?max_rounds:int -> unit -> bool
(** Run rounds until the oracle reports zero garbage, up to
    [max_rounds] (default 40). True on success. Requires {!start} to
    have been called. *)
