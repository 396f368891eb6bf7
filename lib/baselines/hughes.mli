(** Baseline: Hughes's timestamp algorithm (§7, [Hug85]).

    Every local trace propagates timestamps instead of mark bits:
    persistent and application roots carry the current time, inrefs
    carry the newest timestamp that has reached them, and the trace
    pushes the maximum onward to outrefs (whose changes travel to the
    target inrefs in update messages). A garbage object's timestamp
    stops advancing, so anything timestamped below a global threshold
    is garbage — including inter-site cycles.

    The threshold is computed centrally: a coordinator collects every
    site's last-trace time and broadcasts [min - slack]. Each inref's
    timestamp lives in this module's own table, not in the core
    {!Dgc_rts.Ioref} record: an inref takes the time it is first seen,
    never earlier than its creation, and then the newest timestamp the
    source's traces ship. Every trace ships the timestamp of every
    outref it reached, so a lost update is replaced by the next one.

    {b The slack bound.} A site traces every [trace_interval] plus up
    to [trace_jitter], and a message lands within the latency bound
    [L]. So one hop of a reference chain lags by at most
    [P = trace_interval + trace_jitter + L]: at any time [t], an inref
    at §3 distance [k] from a root holds a timestamp of at least
    [t - k·P]. The threshold is at most the round's query time minus
    the slack, so no live inref is flagged while the slack is at least
    [depth·P], where [depth] is the largest §3 distance of a live
    object. {!install} uses [(depth + 1)·P]: the extra hop covers the
    start of the trace schedule.

    The argument needs every timestamp update to land within [L], so
    it holds only without message loss: {!install} refuses
    [ext_drop > 0] (no fixed slack covers a run of losses), and a
    crash, which drops the messages sent to the crashed site, may
    leave a recovered site's inrefs stale for longer than the bound.

    The weakness this baseline demonstrates: the threshold is a global
    minimum, so one slow or crashed site holds back cycle collection
    everywhere (§7: "a single site can hold down the global
    threshold"). *)

open Dgc_simcore
open Dgc_rts

type t

val install : Engine.t -> depth:int -> t
(** Replace every site's local trace with the timestamp-propagating
    variant and install the threshold-round handlers, with the slack
    the bound above gives for [depth] (take it from the built
    workload, e.g. {!Dgc_oracle.Oracle.max_distance}). Raises
    [Invalid_argument] when the configuration drops collector
    messages ([ext_drop > 0]) or its latency is unbounded. *)

val run_threshold_round :
  t -> ?coordinator:Dgc_prelude.Site_id.t -> unit -> unit
(** Collect last-trace times, broadcast the new threshold; sites then
    flag inrefs below it so their next local traces collect them.
    Replies from crashed sites never arrive, so the round stalls
    (demonstrably). *)

val threshold : t -> Sim_time.t
(** The last threshold broadcast (0 if none yet). *)

val rounds_completed : t -> int
