(** Ground truth for verification.

    The oracle sees the whole distributed state at once — every heap,
    every agent variable, every undelivered message — and computes
    exact global reachability. It exists to check the collectors, so it
    deliberately shares none of their machinery: one 0-1 breadth-first
    search over the union of heaps, from one root set, gives the true
    §3 distance of every reachable object. The live set, the garbage
    set, the would-free check and [Invariants.distance_sanity] all read
    that one table.

    Roots, each tagged with its §3 distance (the fewest inter-site
    references on a path from it):
    - a persistent root of any site: 0;
    - an application root (variable or pin) at site [s]: 0 if it names
      an object at [s], 1 if it names another site's object;
    - a reference carried by an undelivered message — in flight,
      parked by a partition or crash, or redelivering after
      {!Engine.heal}/{!Engine.recover} ({!Engine.in_flight_refs}): 1.

    Along the search a local field costs 0 and a cross-site field 1. *)

open Dgc_prelude
open Dgc_heap
open Dgc_rts

exception Safety_violation of string

val distances : Engine.t -> int Oid.Tbl.t
(** The true §3 distance of every object reachable from the roots;
    unreachable objects have no entry. A fresh table per call. *)

val max_distance : Engine.t -> int
(** The largest value in {!distances}: how many inter-site references
    the deepest live object lies behind (0 with none). *)

val live_set : Engine.t -> Oid.Set.t
(** The keys of {!distances}: all objects reachable from the roots. *)

val garbage_set : Engine.t -> Oid.Set.t
(** All existing objects not in {!live_set}. *)

val garbage_count : Engine.t -> int

val cyclic_garbage_sites : Engine.t -> Site_id.Set.t
(** Sites that own at least one garbage object. *)

val check_would_free : Engine.t -> Site_id.t -> int list -> unit
(** [check_would_free eng site idxs]: the collector at [site] is about
    to free the objects with local indices [idxs]. Raises
    {!Safety_violation} naming the first live one, if any. With
    [idxs = []] it returns without searching. *)

val assert_no_garbage : Engine.t -> unit
(** Raises {!Safety_violation} listing remaining garbage, for
    completeness tests run after quiescence. *)

val table_violations : Engine.t -> string list
(** Referential-integrity violations between heaps and ioref tables.
    Exact only in a quiesced system (no in-flight messages):
    - every cross-site field reference has an outref at its source
      site and a matching source entry in the target's inref;
    - every outref is backed by a source entry at the owner;
    - every inref source site actually holds a matching outref. *)
