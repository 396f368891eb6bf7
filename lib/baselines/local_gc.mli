(** Plain local tracing (§2), without the distance heuristic.

    Atomic mark-sweep from persistent roots, application roots and
    non-flagged inrefs; untraced outrefs are dropped and reported to
    their target sites in update messages. This is the collector the
    acyclic baselines build on; the core library's {!Dgc_core.Local_trace}
    supersedes it with distance propagation, suspicion and outset
    computation. *)

open Dgc_rts

val run : Engine.t -> Site.t -> unit
(** Perform one local trace at the site now. Increments
    [Site.trace_epoch], frees local garbage through
    {!Dgc_core.Sweep.free}, sends update messages.
    Metrics: [gc.local_traces], [gc.objects_freed]. *)

val install : Engine.t -> unit
(** Set every site's [h_run_local_trace] to {!run}. *)
