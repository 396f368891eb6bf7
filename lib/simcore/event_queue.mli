(** Priority queue of timed events.

    Events with equal timestamps are delivered in insertion order (a
    strictly increasing sequence number breaks ties), which keeps
    simulation runs deterministic. A popped payload is not retained. *)

type 'a t

val create : dummy:'a -> 'a t
(** An empty queue. Slots without a pending event hold [dummy], which
    is never returned. *)

val push : 'a t -> at:Sim_time.t -> 'a -> unit
(** Schedule an event at absolute time [at]. *)

val min_time : 'a t -> Sim_time.t
(** Time of the earliest event. Raises [Invalid_argument] if empty. *)

val pop_min : 'a t -> 'a
(** Remove the earliest event and return its payload. With
    {!is_empty} and {!min_time} this pops without allocating. Raises
    [Invalid_argument] if empty. *)

val pop_nth : 'a t -> int -> (Sim_time.t * 'a) option
(** Remove and return the [n]-th earliest event (0 = the earliest);
    [None] if fewer than [n+1] events are pending. Events skipped over
    keep their positions and tie-break order — this is the schedule
    explorer's deviation primitive. *)

val is_empty : 'a t -> bool
val length : 'a t -> int
