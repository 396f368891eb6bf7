(** Baseline: collecting cycles by controlled migration (§7, [ML95]).

    Reuses the core collector's distance heuristic (back tracing
    disabled). When a suspected inref's distance crosses the back
    threshold, its object migrates to the source site holding the
    reference; repeated migrations converge a distributed garbage
    cycle onto a single site, where plain local tracing collects it.

    A departure is a move: the source keeps the object, and its inref,
    until the destination has taken the copy, retargeted its
    references and acked; only then is the source copy, garbage by
    now, freed through {!Dgc_core.Sweep.free}. Until the ack every
    trace re-sends the object, and the destination takes one copy.

    The costs this baseline exists to quantify, per the paper's
    comparison: objects (bytes) physically move, and every reference to
    a migrated object must be patched. This implementation handles the
    single-holder case (exactly one source site), which covers rings
    and chains; multi-holder migration would need forwarding pointers
    as in ML95 and is out of scope — such inrefs are simply skipped
    (and counted). *)

open Dgc_rts
open Dgc_core

type t

val install : Engine.t -> t
val collector : t -> Collector.t

val migrations : t -> int
val bytes_moved : t -> int
val skipped_multi_holder : t -> int
