(** The one way a collector frees objects.

    Every collection free in the library, the §5 trace's and each §7
    baseline's, goes through {!free}. With [Config.oracle_checks] set,
    {!Dgc_oracle.Oracle.check_would_free} first raises
    [Safety_violation] if any of the objects is live, so the flag
    means the same thing for every collector. *)

open Dgc_heap
open Dgc_rts

val free : Engine.t -> Site.t -> int list -> int
(** [free eng site dead] frees the objects of [site] with local indices
    [dead] ({!Dgc_heap.Heap.free}), after the oracle check when
    [Config.oracle_checks] is set. Returns the number freed. *)

val sweep : Engine.t -> Site.t -> keep:(Oid.t -> bool) -> int
(** {!free} every object of [site] that [keep] rejects: a mark-sweep
    collector's sweep. *)
