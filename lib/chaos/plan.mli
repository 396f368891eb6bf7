(** Fault plans: first-class, serializable chaos schedules.

    A plan is a list of timed fault windows — site crashes, network
    partitions, collector-message drop and duplicate-delivery bursts,
    latency storms — each opening [at_ms] into the run and closing
    [dur_ms] later. Plans serialize to the ["dgc.plan/1"] JSON schema
    so a failing campaign case can be committed to the regression
    corpus and replayed bit-for-bit; {!Inject} executes them against a
    live engine; {!Campaign} shrinks them to minimal reproducers. *)

open Dgc_prelude

type event =
  | Crash of { site : int }
      (** crash the site at window open, recover it at window close;
          out-of-range sites are skipped by the injector *)
  | Partition of { groups : int list list }
      (** split the network into the given groups for the window
          (unlisted sites form an implicit extra group) *)
  | Drop of { p : float }
      (** drop collector ([Ext]) messages with probability [p] during
          the window, overriding [Config.ext_drop] *)
  | Dup of { p : float }
      (** duplicate collector messages with probability [p] during the
          window, overriding [Config.ext_dup] *)
  | Slow of { factor : float }
      (** multiply every sampled message latency by [factor] during
          the window (a latency storm) *)

type timed = { at_ms : float; dur_ms : float; ev : event }
type t = { events : timed list }

val schema : string
(** ["dgc.plan/1"]. *)

val empty : t
val length : t -> int
val kind_name : event -> string

val to_json : t -> Dgc_telemetry.Json.t
(** Deterministic (events in order, fields in fixed order). *)

val of_json : Dgc_telemetry.Json.t -> (t, string) result

val validate : sites:int -> t -> (unit, string) result
(** Deployment-aware well-formedness: non-negative finite windows,
    probabilities in [0,1], positive latency factors, crash/partition
    sites inside [0, sites). {!random} and every fuzz mutator preserve
    this. *)

val random : rng:Rng.t -> sites:int -> horizon_ms:float -> events:int -> t
(** Draw [events] random fault windows opening in the first three
    quarters of the horizon, each lasting 5–25% of it, sorted by open
    time. Purely a function of the [rng] stream. *)

val pp : Format.formatter -> t -> unit
