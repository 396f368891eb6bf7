(** Fault-plan execution against a live engine.

    {!arm} schedules every window of a {!Plan.t}: an apply event at
    [at_ms] and an undo event at [at_ms + dur_ms], both as ordinary
    engine events (so they interleave deterministically with the
    simulation). Windows of the same kind may overlap; the injector
    refcounts crashes per site and keeps the most recently opened
    drop/dup/slow/partition window in force, restoring the next one
    down (or the configured default) when it closes. Every injection
    lands in the journal (cat ["chaos"]) and in [chaos.*] counters.

    {!quiesce} closes every window immediately — recovering crashed
    sites, healing partitions, clearing the drop/dup/latency overrides
    — and deactivates any still-pending plan events, so the campaign
    driver can demand completeness afterwards. *)

open Dgc_rts

type t

val arm : Engine.t -> Plan.t -> t
(** Call before running the horizon; delays are relative to now. *)

val quiesce : t -> unit
(** Idempotent. *)

val injected : t -> int
(** Windows actually opened so far (skipped events excluded). *)

val active : t -> int
(** Windows currently open. *)

val active_mask : t -> int
(** One bit per fault kind with a window currently open: crash [1],
    partition [2], drop [4], dup [8], slow [16]. The fuzzer folds this
    into its coverage keys so "state X reached {e while partitioned}"
    and "state X reached fault-free" count as different edges. *)

