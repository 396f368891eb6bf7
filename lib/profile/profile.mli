(** Deterministic sim-cost profiler.

    A stack of phase scopes forming a tree of nodes; each node
    accumulates named {e work units} — deterministic integer costs
    (events, frames, edges visited, bytes moved, workspace touches)
    attributed to the innermost open scope — plus inclusive host wall
    time. Work units are pure functions of the simulated schedule, so
    two same-seed runs produce byte-identical work sections
    ([to_json ~wall:false]); wall time is machine-dependent and kept in
    a separate field that bit-reproducible artifacts omit.

    The profiler draws no randomness and schedules no events, so runs
    with it attached stay event-identical to runs without it.

    Exports: folded stacks ({!to_folded}: the collapsed-stack format
    that flamegraph.pl and other flame-graph viewers import) and the
    [dgc.profile/1] artifact ({!to_json}) with {!validate}. The
    artifact also renders the per-back-trace cost {!Ledger}, whose
    rows the collector records. A change in the profile shows as a
    byte difference in the pinned artifacts that embed it. *)

module Json = Dgc_telemetry.Json

val schema : string
(** ["dgc.profile/1"] *)

type t

val create : ?clock:(unit -> float) -> unit -> t
(** [clock] supplies host seconds for wall accounting (default
    [Unix.gettimeofday] — vDSO-cheap where [Sys.time] is a syscall);
    it never influences work units or the schedule. *)

(** {1 Scopes and work} *)

val enter : t -> string -> unit
val leave : t -> unit
(** @raise Invalid_argument when the scope stack is empty. *)

val with_scope : t -> string -> (unit -> 'a) -> 'a
(** Exception-safe [enter]/[leave] bracket. *)

val depth : t -> int
(** Open-scope count (root excluded); for tests. *)

val work : t -> string -> int -> unit
(** [work t unit n] adds [n] units to the innermost open scope (the
    root when none is open). [n = 0] is a no-op. *)

(** {1 Exports} *)

val units : t -> string list
(** All work-unit names seen, sorted. *)

val to_folded : ?unit_:string -> t -> string
(** flamegraph.pl-compatible folded stacks ("all;deliver;move 42"),
    weighted by [unit_]'s self-work per node, or the sum over all work
    units when omitted. Zero-weight nodes are skipped. *)

val to_json :
  ?wall:bool -> ?name:string -> ?ledger:Ledger.row list -> t -> Json.t
(** The [dgc.profile/1] artifact: pre-order nodes (children in name
    order) with sorted work maps, the unit list, and the ledger
    section rendered from [ledger] (default none: an empty section).
    [wall:false] omits the host-time [wall_ns] fields so the document
    is bit-reproducible across machines: equal for same-seed runs. *)

val validate : Json.t -> (unit, string) result
(** The [dgc.profile/1] decoder: declared units, sorted work maps,
    parents-before-children pre-order, no duplicate paths, ledger
    shape. *)

val validate_run : Json.t -> (unit, string) result
(** The [dgc.run/1] decoder with the profile section checked in full:
    {!Dgc_telemetry.Run_artifact.validate} (which lies below this
    library and checks only that section's tag), then {!validate} on
    the ["profile"] section when there is one. *)
