(** Windowed time-series metrics.

    A registry of named series bucketed by simulated time: counters
    (per-bucket sums plus a cumulative total) and gauges (last write
    per bucket). Buckets are [window] seconds wide and the per-series
    retention is bounded by [max_buckets], so a registry can stay
    attached to a long run at O(max_buckets) memory per name.

    Series complement the end-of-run aggregates in
    [Dgc_simcore.Metrics] with a time dimension: in-flight back-trace
    counts, frames held, retry/chaos rates, per-site bytes resident.
    Names follow the metrics convention, including [{site=N}] label
    suffixes (e.g. ["bytes_resident{site=2}"]).

    Exporters: {!to_prom} (Prometheus-style text exposition of the
    final values), {!chrome_counters} (Perfetto counter-track ["C"]
    events, mergeable into [Tracer.to_chrome]), {!to_json} (the
    ["series"] section of a run artifact). *)

type t

type kind = Counter | Gauge

val create : ?window:float -> ?max_buckets:int -> unit -> t
(** [window] is the bucket width in simulated seconds (default 1.0);
    [max_buckets] bounds per-series retention (default 512) — older
    buckets are evicted and counted. *)

val window : t -> float

(** {1 Recording} *)

val add : t -> string -> at:float -> int -> unit
(** Counter: add to the bucket covering [at] and to the running total.
    First use of a name fixes its kind; a later {!set} on a counter
    name (or {!add} on a gauge name) raises [Invalid_argument]. *)

val incr : t -> string -> at:float -> unit
(** [add t name ~at 1]. *)

val set : t -> string -> at:float -> float -> unit
(** Gauge: overwrite the bucket covering [at]; the newest write is
    also the series' last value. *)

(** {1 Reading} *)

val names : t -> (string * kind) list
(** Sorted by name. *)

val points : t -> string -> (float * float) list
(** Retained (bucket-start-time, value) pairs, oldest first; [] for
    an unknown name. *)

val total : t -> string -> float
(** Counter: cumulative sum over the whole run (including evicted
    buckets). Gauge: the last value written. 0 for an unknown name. *)

val evicted : t -> string -> int
(** Buckets dropped by the retention bound. *)

(** {1 Export} *)

val to_json : t -> Json.t
(** [{"window": w, "series": {name: {"kind", "n", "max", "last",
    "total", "points": [[t, v], ...]}, ...}}] with names sorted, so
    output is deterministic and diffable. *)

val validate : Json.t -> (unit, string) result
(** Shape check of a {!to_json} document: numeric window, every series
    carrying a known kind, numeric summary fields, an [n] matching its
    points array, and two-element numeric points. *)

val to_prom : t -> string
(** Strict Prometheus text exposition of the final state: one
    [# TYPE] line per metric family, one sample per series (counters
    expose the cumulative total, gauges the last value). Names are
    sanitized (dots to underscores, ["dgc_"] prefix), [{site=N}]
    suffixes become proper labels with validated label names, and
    label values escape exactly backslash, double quote and newline as
    the exposition format requires. *)

val chrome_counters : t -> Json.t list
(** One Chrome trace-event counter sample (["ph":"C"]) per retained
    point; the [pid] is the site for [{site=N}]-labelled series and 0
    otherwise. Pass to [Tracer.to_chrome]'s [?counters]. *)
