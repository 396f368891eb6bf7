(** Baseline: group tracing seeded from suspects (§7, [MKI+95, RJ96]).

    Reuses the core collector's distance heuristic (back tracing
    disabled): when a suspected outref crosses the back threshold, the
    site forms a {e group} — the set of sites reached by flooding
    forward along suspected outrefs from the seed — and runs a marking
    trace restricted to the group. References entering the group from
    outside, clean inrefs, and local roots are treated as roots;
    unmarked objects inside the group are swept. The marking runs in
    rounds from the initiator: the first round or mark that reaches a
    member carries the member list and starts its marking, and the
    sweep waits for the {!Four_counter} test, so a lost
    mark stalls the group instead of sweeping.

    Weaknesses demonstrated, per the paper's §7 discussion:
    - the group can be much larger than the cycle (it follows all
      suspected reachability, including garbage chains hanging off);
    - two sites on one cycle may initiate groups simultaneously; a
      busy site refuses to join, the group aborts and must retry;
    - with [max_group] capped, cycles spanning more sites than the cap
      are never collected. *)

open Dgc_rts
open Dgc_core

type t

val install : Engine.t -> max_group:int -> t
val collector : t -> Collector.t

val try_initiate : t -> Dgc_prelude.Site_id.t -> unit
(** Consider starting a group from this site right now (normally done
    automatically after each local trace). Used by tests to force two
    simultaneous initiations. *)

val groups_formed : t -> int
val groups_aborted : t -> int
val last_group_size : t -> int
