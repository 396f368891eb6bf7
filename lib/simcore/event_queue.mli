(** Priority queue of timed events.

    Events with equal timestamps are delivered in insertion order (a
    strictly increasing sequence number breaks ties), which keeps
    simulation runs deterministic. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> at:Sim_time.t -> 'a -> unit
(** Schedule an event at absolute time [at]. *)

val pop : 'a t -> (Sim_time.t * 'a) option
(** Remove and return the earliest event, or [None] if empty. *)

val pop_nth : 'a t -> int -> (Sim_time.t * 'a) option
(** Remove and return the [n]-th earliest event (0 = {!pop});
    [None] if fewer than [n+1] events are pending. Events skipped over
    keep their positions and tie-break order — this is the schedule
    explorer's deviation primitive. *)

val peek_time : 'a t -> Sim_time.t option
val is_empty : 'a t -> bool
val length : 'a t -> int
