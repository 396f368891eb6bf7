(** dgc-san: the dynamic happens-before sanitizer.

    Installed on an engine it threads a {!Vclock} per site through
    every message and every labelled §4.6 timer (it subscribes to the
    engine's event stream, keyed by the engine's message and timer
    ids), and runs two detectors over the causal order:

    - a {b message-race detector}: a reference transfer (a [Move] or
      [Insert] carrying an oid) and a back-trace read of the same oid
      (a [Back_call]) that are causally {e concurrent} conflict; the
      pair is benign when the §6.1 transfer barrier protected the
      transferred ioref (fresh / forced-clean / pinned, judged right
      after the transfer dispatched), harmful otherwise — the §6.4
      race. Duplicate deliveries replaying calls into settled traces
      and reports overtaking still-open frames are counted as benign
      reorderings.
    - a {b lost-trace leak detector}: a trace still occupying frames,
      call-memo entries or visited marks somewhere, with {e no}
      message of its own in flight and {e no} armed §4.6 timer, can
      never finish — nothing is left that could ever advance it. The
      verdict cites the causal evidence (unanswered calls, crashed
      callees).

    Everything lands in [san.*] counters, Warn journal entries
    (cat ["san"]) and the ["dgc.san/1"] report ({!to_json}). Like
    every subscriber it draws no randomness and schedules nothing, so
    runs are event-identical with or without it. *)

open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts
open Dgc_core

type race = {
  rc_oid : Oid.t;  (** the ioref raced on *)
  rc_trace : Trace_id.t;  (** the back trace reading it *)
  rc_trace_site : Site_id.t;  (** where the [Back_call] landed *)
  rc_transfer_site : Site_id.t;  (** where the transfer landed *)
  rc_transfer_kind : string;  (** ["move"] or ["insert"] *)
  rc_harmful : bool;  (** barrier protection was {e not} engaged *)
  rc_at : Sim_time.t;
}

type leak = {
  lk_trace : Trace_id.t;
  lk_residue : (Site_id.t * Back_trace.residue) list;
  lk_evidence : string list;  (** the causal facts proving stuckness *)
  lk_at : Sim_time.t;
}

type t

val install : Engine.t -> t
(** Arm the sanitizer: subscribes it to the engine; on each [Step] it
    resolves the transfer-barrier protection of the event just
    dispatched. One sanitizer per engine, for the engine's lifetime. *)

val set_shared : t -> Back_trace.shared -> unit
(** Give the detectors the collector's frame tables; without it the
    leak detector and the report-reorder counter stay silent. *)

val races : t -> race list
(** Every race found so far, oldest first (benign and harmful). *)

val harmful_races : t -> race list

val leaks : t -> leak list
(** Leaks proved so far (each trace reported once), oldest first. *)

val check_leaks : t -> leak list
(** Run the lost-trace proof now; returns (and records) only newly
    proved leaks. *)

val race_message : race -> string
val leak_message : leak -> string

val check : t -> string list
(** The explorer/campaign hook: run {!check_leaks}, then report one
    message per harmful race and per proved leak ([] = clean). *)

val to_json : t -> Dgc_telemetry.Json.t
(** The ["dgc.san/1"] report: races, leaks, live message (the
    [live_capsules] field) and armed timer counts. *)
