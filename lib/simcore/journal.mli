(** A bounded journal of simulation events.

    A ring buffer of timestamped, categorized, severity-tagged
    one-line events. The engine writes into it when one is attached
    ([Engine.jlog]); campaigns, the auditor and the CLI read it back.
    The buffer starts small and doubles when full, up to its capacity;
    only then does the oldest entry get overwritten. So a short run
    pays for the entries it writes, writing is amortized O(1), and the
    buffer never grows beyond its capacity, so it can stay attached
    during long runs. *)

type level = Debug | Info | Warn

val level_rank : level -> int
(** Debug < Info < Warn. *)

type entry = { at : Sim_time.t; level : level; cat : string; text : string }

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 2048 events. *)

val add : t -> entry -> unit
(** Append an entry, overwriting the oldest once the ring is full. *)

val entries : ?cat:string -> ?min_level:level -> ?last:int -> t -> entry list
(** Oldest first; [cat] filters by category, [min_level] keeps entries
    at or above the given severity, [last] keeps only the most recent
    n (after filtering). *)

val pp_entry : Format.formatter -> entry -> unit
