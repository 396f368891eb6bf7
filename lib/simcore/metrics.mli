(** Named counters and histograms for experiments.

    A [t] is a registry of integer counters and histograms on one
    fixed bucket set. The simulator and collectors record into one
    registry per run; benches and run artifacts read it back. *)

type t

val create : unit -> t

(** {1 Counters} *)

val incr : t -> string -> unit
val add : t -> string -> int -> unit
val get : t -> string -> int
(** 0 if never incremented. *)

val counters : t -> (string * int) list
(** Sorted by name. *)

val counter_ref : t -> string -> int ref
(** The counter's cell, registered (at 0) if new: a hot path resolves
    its name once and then bumps the cell. {!incr} and {!add} go
    through it, so a cell and the string calls on one name share one
    entry. Resolve it on first record (say behind [lazy]) to keep a
    never-recorded name out of {!counters}. *)

(** {1 Histograms}

    A histogram is created on first observation. Every histogram uses
    the same upper bounds: 48 geometric buckets from 1e-6 doubling
    upward, plus an overflow bucket. Percentiles interpolate linearly
    inside the covering bucket, clamped to the exact observed min and
    max, so [p50/p95/p99] are bucket-resolution estimates (within the
    bucket of the nearest-rank quantile, hence under 2x off) while
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

val hist_observe : t -> string -> float -> unit

type hist

val hist_ref : t -> string -> hist
(** The histogram named [name], created if new: resolved once, then
    {!observe}d. [hist_observe t name x] is [observe (hist_ref t name) x].
    As with {!counter_ref}, resolving registers the name. *)

val observe : hist -> float -> unit

val hist_stats : t -> string -> hist_stats option
val hists : t -> (string * hist_stats) list
(** Sorted by name. *)
