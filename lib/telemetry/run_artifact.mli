(** Machine-readable run artifacts.

    One JSON document per run ("dgc.run/1"): name, simulated duration,
    every counter, and percentile summaries of every histogram in the
    metrics registry, plus free-form extra fields. The CLI's [metrics]
    subcommand, the bench harness ([BENCH_backtrace.json]) and tests
    all write and validate the same shape, so downstream tooling can
    track numbers across runs without scraping tables. *)

val schema : string
(** ["dgc.run/1"]. *)

val make :
  name:string ->
  sim_seconds:float ->
  ?extra:(string * Json.t) list ->
  ?audit:Json.t ->
  ?series:Series.t ->
  ?profile:Json.t ->
  Dgc_simcore.Metrics.t ->
  Json.t
(** Counters and histograms are emitted sorted by name. [audit], when
    given, must be a ["dgc.audit/1"] document (the observe library's
    [Audit.to_json]); it lands under the top-level ["audit"] key.
    [series], when given, lands as {!Series.to_json} under ["series"]
    — the time dimension the point-in-time sections lack. [profile],
    when given, must be a ["dgc.profile/1"] document
    ([Dgc_profile.Profile.to_json]); it lands under ["profile"]. *)

val audit_section : Json.t -> Json.t option
(** The ["audit"] section of an artifact, if present. *)

val series_section : Json.t -> Json.t option
(** The ["series"] section of an artifact, if present. *)

val profile_section : Json.t -> Json.t option
(** The ["profile"] section of an artifact, if present. *)

val validate :
  ?require_hists:string list ->
  ?require_counter_prefixes:string list ->
  Json.t ->
  (unit, string) result
(** Shape check: schema/name/sim_seconds present and well-typed,
    [counters] all integers, every histogram carrying numeric
    n/sum/min/max/p50/p95/p99. [require_hists] names histograms that
    must exist; [require_counter_prefixes] demands at least one
    counter under each prefix. An ["audit"] section, when present,
    must carry the ["dgc.audit/1"] schema tag; a ["series"] section
    must pass {!Series.validate}; a ["profile"] section must carry the
    ["dgc.profile/1"] schema tag (full validation is the profile
    library's job). *)
