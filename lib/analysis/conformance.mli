(** Protocol conformance: per-role ordering automata over the message
    stream plus handler-coverage accounting.

    The monitor subscribes to the engine's event stream
    ({!Dgc_rts.Engine.subscribe}), reads its [Send] and [Deliver]
    events, and models
    each {!Dgc_rts.Protocol.payload} kind as a small state machine
    keyed on delivery events:

    - [move]/[move_ack] pair up by token: every ack answers exactly one
      earlier move, travels the reverse direction, and every move is
      eventually acknowledged (the §6.1 insert barrier holds until it
      is).
    - [insert]/[insert_done] pair up per (ref, holder): inserts go to
      the ref's owner, name their sender as the holder, and are each
      answered once.
    - [update] entries (removals and distances) only concern refs the
      receiving site owns.
    - no base payload is delivered from a site to itself.

    The automata are expressed through the generated dispatch table
    ({!Dgc_rts.Protocol.handlers}), so adding a payload constructor
    without a conformance rule fails to compile. Coverage is judged
    against {!Dgc_rts.Protocol.base_kinds}: a kind never delivered by
    the battery is reported as uncovered. *)

open Dgc_rts

type violation = { c_rule : string; c_message : string }

val violation_to_string : violation -> string

type t
(** A live monitor; attach it to any engine. *)

val create : unit -> t

val attach : t -> Engine.t -> unit
(** Subscribe the monitor to the engine. One monitor may observe
    several engines in turn. *)

val hook : t -> Engine.event -> unit
(** The raw subscriber: [Send] and [Deliver] drive the automata, every
    other event is ignored. *)

val finish : t -> violation list
(** End-of-run obligations (moves acked, inserts answered) plus
    everything recorded along the way, in detection order. *)

val state_code : t -> int
(** A compact fingerprint of the ordering automata in [0, 32): bucketed
    counts of unacknowledged moves and outstanding inserts, plus a
    violation bit. O(1). A subscriber that runs after the monitor reads
    it as of after the delivery; the coverage-guided fuzzer uses that
    as its protocol-automaton coverage signal. *)

type report = {
  r_violations : violation list;
  r_deliveries : (string * int) list;  (** per base kind, declaration order *)
  r_uncovered : string list;  (** base kinds never delivered *)
  r_total : int;
}

val clean : report -> bool
val pp_report : Format.formatter -> report -> unit

val run_battery : ?seed:int -> unit -> report
(** Run the built-in deterministic battery: Figure 1 through a full
    periodic collection (updates, back-trace traffic, the sweep), then
    a cross-site mutator walk of the a->b->c chain (the complete
    move/insert/insert_done/move_ack exchange). *)
