(** The discrete-event simulation engine.

    Owns the sites, the event queue, the network model and the metrics
    registry; implements the base reference-listing protocol of §2
    (inserts with the §6.1.2 insert barrier, updates, reference
    transfer via mutator moves). Collector schemes and mutator agents
    plug in through {!Site.hooks} and the callbacks below.

    Determinism: all randomness comes from the engine's seeded
    generator, and simultaneous events fire in scheduling order, so a
    run is a pure function of the configuration and the installed
    behaviours. One event queue drives the whole run, serially. *)

open Dgc_prelude
open Dgc_simcore
open Dgc_heap

type t

val create : Config.t -> t

(** {1 Observation}

    Every observer — the flight recorder, dgc-san, the conformance
    automata, [Config.Check_step], fuzz coverage — sees the run
    through one typed event stream. Recording is one-way: the
    metrics registry ({!metrics}) and the journal are plain stores that
    hold no hook back into the engine, so a kept registry or entry list
    never keeps the engine alive. *)

type event =
  | Send of {
      id : int;
      src : Site_id.t;
      dst : Site_id.t;
      payload : Protocol.payload;
    }
      (** a logical send, once, before deferral, drops or parking; [id]
          is engine-minted and names the message in every later event *)
  | Deliver of {
      id : int;
      src : Site_id.t;
      dst : Site_id.t;
      payload : Protocol.payload;
    }
      (** one copy is about to dispatch (batched flushes and
          redeliveries after heal/recover included); emitted {e before}
          the handler runs, so anything it sends is causally after *)
  | Drop of {
      id : int;
      src : Site_id.t;
      dst : Site_id.t;
      payload : Protocol.payload;
      reason : string;
    }
      (** one copy destroyed without delivery: ["crashed"],
          ["partition"] or ["lossy"] *)
  | Dup of { id : int }  (** the fault model added another copy *)
  | Timer_armed of {
      id : int;
      label : unit -> Site_id.t * string;
      at : Sim_time.t;
    }
      (** a [?label]led timer was armed; [label] (owning site, stable
          key) is left to the subscriber to force *)
  | Timer_fired of { id : int }  (** that timer is about to run *)
  | Fault of { tag : string; detail : string }
      (** crash / recover / partition / heal *)
  | Journal of Journal.entry  (** an entry just landed in the journal *)
  | Span_start of Dgc_telemetry.Tracer.span
  | Span_end of Dgc_telemetry.Tracer.span
  | Step  (** an event finished executing *)

val subscribe : t -> (event -> unit) -> unit
(** Append a subscriber for the engine's lifetime. Subscribers run
    synchronously in subscription order, and events they cause (a
    journal line written while handling a delivery) reach every
    subscriber before the outer event reaches the next one. A
    subscriber must not draw engine randomness or schedule events:
    runs are event-identical with or without subscribers. Exceptions
    propagate out of the run functions. With no subscriber a labelled
    timer is a plain closure. *)

val add_step_watcher : t -> (unit -> unit) -> unit
(** [subscribe] to {!Step} only. *)

val config : t -> Config.t
val sites : t -> Site.t array
val site : t -> Site_id.t -> Site.t
val now : t -> Sim_time.t
val rng : t -> Rng.t
val metrics : t -> Metrics.t

val attach_journal : t -> Journal.t -> unit
(** Attach a bounded event journal; the runtime and collectors record
    faults, traces, sweeps and verdicts into it through {!jlog}, and
    every entry is also emitted as a {!Journal} event. *)

val journal : t -> Journal.t option

val attach_tracer : t -> Dgc_telemetry.Tracer.t -> unit
(** Attach a span tracer; the collectors record back-trace activation
    frames, leaps, reports and timeouts into it as causal spans, and
    each span's opening and closing are emitted as {!Span_start} /
    {!Span_end} events. *)

val tracer : t -> Dgc_telemetry.Tracer.t option

val attach_flight : t -> Dgc_telemetry.Flight.t -> unit
(** Attach a flight recorder: a subscriber that writes message sends,
    deliveries, drops (with the drop reason), faults, journal entries
    and tracer span edges into its binary rings. [Sim.make] attaches
    one, as the first subscriber, when [Config.flight_capacity > 0]. *)

val flight : t -> Dgc_telemetry.Flight.t option

val dump_flight : t -> reason:string -> Dgc_telemetry.Json.t option
(** Snapshot the flight rings into a [dgc.flight/1] document, or
    [None] when no recorder is attached. Still-open tracer spans are
    first closed with synthetic [aborted] ends ({!Tracer.abort_open});
    the number closed is added to the [tracer.aborted_spans] metric.
    The aborted ends replace the spans' real ones, so a dump belongs
    at the end of a run: campaign failures and [dgc-sim --dump-flight]
    come through here. *)

val attach_profile : t -> Dgc_profile.Profile.t -> unit
(** Attach the deterministic sim-cost profiler. The engine opens a
    [deliver;<kind>] scope around every handler dispatch and attributes
    work units (events, deliveries, msgs_sent, bytes) to the innermost
    open scope; the collector layers add local-trace phase scopes and
    frame/visit work. The per-back-trace cost {!Dgc_profile.Ledger} is
    not fed from here: the collector records it whether or not a
    profiler is attached, and callers pass its rows to
    {!Dgc_profile.Profile.to_json}. Like the flight recorder the
    profiler draws no randomness and schedules nothing, so runs are
    event-identical with it on or off. [Sim.make] attaches one
    automatically when [Config.profile]. *)

val profile : t -> Dgc_profile.Profile.t option

val profile_work : t -> string -> int -> unit
(** Attribute work units to the attached profiler's innermost open
    scope; no-op without a profiler. *)

val series : t -> Dgc_telemetry.Series.t
(** The engine's always-on time-series registry (windowed counters and
    gauges, simulated-time buckets). Unlike the flight recorder it is
    unconditionally present: recording costs a hash-table update and
    draws no randomness. *)

val series_incr : t -> string -> unit
(** Add 1 to a counter series at the current simulated time. *)

val series_set : t -> string -> float -> unit
(** Set a gauge series at the current simulated time. *)

val jlog :
  t ->
  ?level:Journal.level ->
  cat:string ->
  ('a, Format.formatter, unit, unit) format4 ->
  'a
(** Record into the attached journal (cheap no-op when none); [level]
    defaults to [Info]. *)

(** {1 Scheduling and messaging} *)

val schedule :
  t ->
  ?label:(unit -> Site_id.t * string) ->
  delay:Sim_time.t ->
  (unit -> unit) ->
  unit
(** Schedule a thunk after [delay]. [?label] marks a protocol timer: a
    thunk producing the owning site and a stable key (e.g.
    ["back_call/t3/..."]), carried unforced in {!Timer_armed}; the
    timer emits {!Timer_fired} just before it runs. *)

val send : t -> src:Site_id.t -> dst:Site_id.t -> Protocol.payload -> unit
(** Sample a latency and schedule delivery. Base-protocol messages to a
    crashed destination are parked and delivered on recovery; [Ext]
    messages to a crashed destination, and [Ext] messages unlucky under
    [cfg.ext_drop], are dropped (and counted). With
    [cfg.defer_interval > 0] an [Ext] message waits in its (src, dst)
    queue instead, and the whole queue goes out as one wire message
    (§4.7): it takes the same path, with one latency, one loss draw and
    one duplication draw for the batch. *)

val fresh_token : t -> int

val send_updates :
  t ->
  src:Site_id.t ->
  removals:(Oid.t * int) list ->
  dists:(Oid.t * int) list ->
  unit
(** Send a local trace's reference-listing changes (§2): one [Update]
    per target site with its outref removals (target, incarnation) and
    distance changes (target, distance), each list reversed. *)

(** {1 Forced cleaning (§6.1, §6.4)} *)

type cleaned = { inref_cleaned : bool; outrefs_cleaned : int }

val force_clean : t -> Site.t -> Oid.t -> cleaned
(** The one clean step, for a reference [r] that reached the site.
    Local [r]: force its inref clean and, if that turned it from
    suspected to clean, every outref in its outset. Remote [r]: force
    its outref clean. Each suspected → clean transition raises the
    site's [h_ioref_cleaned] once, inref first (the §6.4
    notification). Only iorefs the last local trace suspected are
    forced; one that was clean anyway (pinned, or at distance ≤ Δ)
    is forced silently, so it stays clean when that lapses. Returns
    what transitioned. Forcing lasts until the site's next local
    trace installs its outcome. *)

(** {1 Mutator support} *)

val move_agent :
  t -> agent:int -> src:Site_id.t -> dst:Site_id.t -> refs:Oid.t list -> unit
(** Relocate an agent: pins [refs] at [src] (releasing on the eventual
    move-ack, which arrives only after every needed insert was
    acknowledged — the insert barrier), then ships a [Move]. A move to
    the current site completes synchronously. *)

val set_agent_arrival : t -> (agent:int -> dst:Site_id.t -> unit) -> unit
(** Called when a [Move] is delivered, after table bookkeeping and the
    arrival barrier, before the insert round-trips complete. *)

val set_extra_roots : t -> (Site_id.t -> Oid.t list) -> unit
(** Contribute application roots (mutator variables) per site. *)

val app_roots : t -> Site_id.t -> Oid.t list
(** Application roots of a site: contributed variables plus pinned
    local references. May include remote references (variables holding
    remote objects); local traces treat those as outrefs to clean. *)

(** {1 Fault injection} *)

val crash : t -> Site_id.t -> unit
val recover : t -> Site_id.t -> unit

val set_chaos_drop : t -> float option -> unit
(** Override the configured [ext_drop] probability for collector
    messages ([None] restores the configuration). The chaos injector
    drives loss bursts through this. *)

val set_chaos_dup : t -> float option -> unit
(** Override the configured [ext_dup] duplicate-delivery probability:
    an affected collector message is delivered once more with an
    independent latency. Base-protocol messages are never duplicated. *)

val set_latency_factor : t -> float -> unit
(** Multiply every sampled message latency by this factor (default
    [1.0]); the chaos injector models latency storms with it. Clamped
    to be non-negative. *)

val partition : t -> Site_id.t list list -> unit
(** Split the network into the given groups (sites not listed form one
    implicit extra group). Base-protocol messages across a partition
    boundary are parked and delivered on {!heal}; collector ([Ext])
    messages across the boundary are dropped — back tracing reads the
    silence as Live via its timeouts (§4.6). *)

val heal : t -> unit
(** Remove all partitions; parked cross-partition messages flow. *)

val reachable : t -> Site_id.t -> Site_id.t -> bool

(** {1 Oracle support} *)

val in_flight_refs : t -> Oid.t list
(** References carried by undelivered messages: queued for a §4.7
    batch, on the wire — first sends, duplicates, batches and
    redeliveries after {!heal}/{!recover} alike — or parked by a
    partition or a crash. The oracle counts them as roots. *)

(** {1 Running} *)

val start_gc_schedule : t -> unit
(** Begin periodic local traces at every site: each site's
    [h_run_local_trace] fires every [trace_interval] (±jitter),
    staggered across sites. Call once. *)

val step : t -> bool
(** Execute the next event; false if the queue is empty. *)

val step_nth : t -> int -> bool
(** Execute the [n]-th earliest pending event instead of the earliest
    ([step_nth t 0 = step t]); false if fewer than [n+1] events are
    pending. The clock never moves backwards: skipped earlier events
    run later at the (greater) current time. This is the schedule
    explorer's hook for exploring event-queue interleavings. *)

val pending : t -> int
(** Number of pending events. *)

val run_for : t -> Sim_time.t -> unit
(** [run_for t d] processes events with timestamps up to [now + d];
    [now] afterwards equals that time. *)

val trace_rounds_completed : t -> int
(** Minimum over sites of completed local traces. *)
