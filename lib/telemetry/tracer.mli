(** Causal spans for distributed back traces.

    A tracer records spans: named, site-attributed intervals of
    simulated time with parent links and a trace key, so one back
    trace — activation frames, remote leaps, the report phase,
    timeouts — renders as a single causal tree across sites. The
    runtime writes spans through hooks; exporters turn the log into
    JSONL (one span object per line) or Chrome trace-event JSON
    (loadable in Perfetto / chrome://tracing as a flame chart with
    cross-site flow arrows).

    Span ids are unique per tracer and stable across export and
    re-import; times are simulated seconds. *)

type span_id = int

type span = {
  id : span_id;
  parent : span_id option;
  trace : string;  (** trace key, e.g. ["T0.3"] *)
  name : string;  (** e.g. ["frame.local"], ["leap.call"], ["report"] *)
  site : int;
  start : float;  (** simulated seconds *)
  mutable finish : float option;  (** [None] while open *)
  mutable attrs : (string * Json.t) list;
}

type t

val create : unit -> t

val start_span :
  t ->
  ?parent:span_id ->
  trace:string ->
  name:string ->
  site:int ->
  at:float ->
  (string * Json.t) list ->
  span_id

val finish_span : t -> span_id -> at:float -> (string * Json.t) list -> unit
(** Close an open span, appending attributes. A finish for an unknown
    or already-closed id (a TTL may race the report phase) is not an
    error, but it is counted: see {!dropped_finishes}. *)

val event :
  t ->
  ?parent:span_id ->
  trace:string ->
  name:string ->
  site:int ->
  at:float ->
  (string * Json.t) list ->
  span_id
(** A zero-duration span (e.g. a timeout firing). *)

val find : t -> span_id -> span option
val spans : t -> span list
(** In start order. *)

val span_count : t -> int
val open_count : t -> int

val open_spans : t -> span list
(** Spans not yet finished, in start order. *)

val dropped_finishes : t -> int
(** Number of [finish_span] calls that hit an unknown or
    already-closed id and were discarded. A non-zero value after a
    clean run points at a span-bookkeeping bug in the caller. *)

val abort_open : t -> at:float -> int
(** Close every still-open span with a synthetic end at [at] carrying
    an [("aborted", true)] attribute, so Perfetto renders them as real
    slices instead of zero-width marks. Returns the number closed; the
    running count is {!aborted_spans}. The flight recorder calls this
    on dump (the engine mirrors the count into the
    [tracer.aborted_spans] metric). *)

val aborted_spans : t -> int
(** Spans ever closed by {!abort_open}. *)

val set_span_hooks :
  t -> on_start:(span -> unit) -> on_finish:(span -> unit) -> unit
(** Install taps invoked at every span start and finish ([on_finish]
    sees the span with its end time set, including synthetic
    {!abort_open} ends). One pair at a time; the flight recorder
    mirrors span edges into its binary ring through these. *)

val pp : Format.formatter -> t -> unit
(** One summary line (span/open/dropped counts) followed by one line
    per still-open span. *)

(** {1 Export / import} *)

val span_to_json : span -> Json.t
val span_of_json : Json.t -> (span, string) result

val to_jsonl : t -> string
(** One span object per line, start order. *)

val spans_of_jsonl : string -> (span list, string) result

val to_chrome : ?counters:Json.t list -> t -> Json.t
(** A [{"traceEvents": [...]}] document: per-site processes (pid =
    site id), per-trace lanes (tid), one complete ("X") event per
    span, and flow arrows ("s"/"f") linking parents to children that
    run on a different site. [counters] appends extra trace events —
    [Series.chrome_counters] produces Perfetto counter tracks in the
    right shape. *)
