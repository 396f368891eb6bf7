(** Named counters, sample collections and histograms for experiments.

    A [t] is a registry of integer counters, float samples and
    fixed-bucket histograms. The simulator and collectors record into
    one registry per run; benches and run artifacts read it back. *)

type t

val create : ?sample_cap:int -> unit -> t
(** [sample_cap] bounds every sample collection: once a name holds
    that many raw observations, further ones replace retained entries
    by reservoir sampling (uniform over the whole stream, using a
    private deterministic generator), so memory stays O(cap) during
    long runs while {!mean}/{!max_sample}/{!observed} remain exact.
    Unset means unbounded, in observation order. *)

val reset : t -> unit

(** {1 Counters} *)

val incr : t -> string -> unit
val add : t -> string -> int -> unit
val get : t -> string -> int
(** 0 if never incremented. *)

val counters : t -> (string * int) list
(** Sorted by name. *)

(** {1 Samples} *)

val observe : t -> string -> float -> unit
val samples : t -> string -> float list
(** Retained observations; [] if none. In observation order when the
    registry is unbounded, an unordered uniform sample otherwise. *)

val observed : t -> string -> int
(** Observations ever made, including ones the reservoir dropped. *)

val mean : t -> string -> float
(** Over every observation ever made (exact under a reservoir). *)

val max_sample : t -> string -> float
(** Over every observation ever made (exact under a reservoir). *)

(** {1 Histograms}

    A histogram is created on first observation with fixed bucket
    upper bounds (default: 48 geometric buckets from 1e-6 doubling
    upward) plus an overflow bucket. Percentiles interpolate linearly
    inside the covering bucket, clamped to the exact observed min and
    max, so [p50/p95/p99] are bucket-resolution estimates while
    [min]/[max]/[n]/[sum] are exact. *)

type hist_stats = {
  n : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

val hist_observe : t -> ?buckets:float array -> string -> float -> unit
(** [buckets] (strictly increasing upper bounds) is honoured on the
    first observation of the name. On later observations a [buckets]
    that disagrees with the bounds in use is ignored, but reported
    through the {!set_on_bucket_mismatch} callback — the message names
    both offending specs (the bounds given and the bounds in use) —
    and the engine wires this to a Warn journal entry (or a raise
    under [Check_step]). *)

val set_on_bucket_mismatch : t -> (string -> unit) -> unit
(** Install the handler invoked with a description whenever
    [hist_observe]/[hist_ref] receives a [?buckets] spec that
    disagrees with a histogram's existing bounds. Default: none (the
    mismatch stays silent). *)

val hist_quantile : t -> string -> float -> float option
(** None if the histogram is missing or empty. *)

val hist_stats : t -> string -> hist_stats option
val hists : t -> (string * hist_stats) list
(** Sorted by name. *)

val pp : Format.formatter -> t -> unit
(** Counters, then samples, then histograms — each block sorted by
    name, so output is deterministic and diffable. *)
