(** Distributed back tracing (§4).

    A back trace starts from a suspected outref and searches backwards
    over ioref-level reachability: local steps go from an outref to the
    inrefs in its inset, remote steps go from an inref to the outrefs
    at its source sites. The trace returns Live as soon as it reaches a
    clean ioref; if every branch bottoms out, the visited inrefs are
    garbage, and the initiator reports that outcome to every
    participant site (§4.5), which flags them.

    Implementation notes, mirroring §4.4–§4.7:
    - an activation frame per call, with a pending-count and a
      Live-dominates result; branch calls are issued in parallel and a
      Live child completes the frame early;
    - visited marks are per-trace sets in the iorefs, cleared by the
      report phase or by a TTL (a participant that never hears the
      outcome assumes Live, §4.6);
    - a caller that waits too long for a reply assumes Live (§4.6);
    - when an ioref is cleaned while a trace is active on it, the
      frame is forced Live — the §6.4 clean rule;
    - multiple concurrent traces are distinguished by trace ids; an
      ioref deleted under one trace makes calls from others return
      Garbage, which is safe (§4.7). *)

open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts

type Protocol.ext +=
  | Back_call of {
      trace : Trace_id.t;
      r : Oid.t;
      reply_site : Site_id.t;
      reply_frame : int;
      call_seq : int;
    }  (** "perform BackStepLocal(you, r)" — sent along an inref's
           source list *)
  | Back_reply of {
      trace : Trace_id.t;
      reply_frame : int;
      call_seq : int;
      verdict : Verdict.t;
      participants : Site_id.Set.t;
    }
  | Back_report of { trace : Trace_id.t; outcome : Verdict.t }

type shared
(** State shared across all sites of one engine (per-site frame tables
    plus a per-trace statistics registry). *)

type trace_stat = {
  ts_initiator : Site_id.t;
  ts_root : Oid.t;  (** the outref the trace started from *)
  ts_started : Sim_time.t;
  mutable ts_span : int option;
      (** root telemetry span id when a tracer is attached *)
  mutable ts_msgs : int;  (** back-trace messages sent on its behalf *)
  mutable ts_call_msgs : int;  (** of which [Back_call] *)
  mutable ts_call_bytes : int;  (** their {!Protocol.approx_bytes} *)
  mutable ts_reply_msgs : int;  (** of which [Back_reply] *)
  mutable ts_reply_bytes : int;
  mutable ts_report_msgs : int;  (** of which [Back_report] *)
  mutable ts_report_bytes : int;
  mutable ts_calls : int;  (** remote back calls (≈ inter-site refs walked) *)
  mutable ts_frames : int;  (** activation frames created across all sites *)
  mutable ts_retries : int;  (** §4.6 call and report re-sends *)
  mutable ts_memo_hits : int;  (** duplicate calls absorbed by the memo *)
  mutable ts_timeouts : int;
      (** calls given up as Live, plus visited TTLs expired *)
  mutable ts_reports : int;  (** §4.5 outcome reports sent *)
  mutable ts_participants : Site_id.Set.t;
  mutable ts_outcome : (Verdict.t * Sim_time.t) option;
      (** the first (and only) conclusion *)
}
(** The one record of a back trace's life, always kept: the cost
    ledger's rows ({!ledger_rows}) are a view of it. *)

val create : Engine.t -> shared

val start : shared -> Site_id.t -> Oid.t -> Trace_id.t option
(** Start a back trace at the given site from the given suspected
    outref (§4.1 mandates an outref start). None if the outref is
    missing or clean. *)

val handle_ext : shared -> Site_id.t -> src:Site_id.t -> Protocol.ext -> bool
(** Process one of this module's messages; false if it is not ours. *)

val on_cleaned : shared -> Site_id.t -> Oid.t -> unit
(** The §6.4 clean rule: the ioref named by this reference was just
    cleaned at the site; any trace active there returns Live. No-op
    when [enable_clean_rule] is off (ablation). *)

val active_frames : shared -> Site_id.t -> int

type parent_info =
  | Pi_initiator  (** the trace root at the initiator *)
  | Pi_local of int  (** parent frame id at the same site *)
  | Pi_remote of { site : Site_id.t; frame : int; call_seq : int }
      (** awaited by [frame] at [site] as its call [call_seq] *)

type frame_info = {
  fi_id : int;
  fi_trace : Trace_id.t;
  fi_ioref : Oid.t;  (** the ioref the activation is parked on *)
  fi_kind : string;  (** ["frame.local"] or ["frame.remote"] *)
  fi_pending : int;  (** outstanding child calls *)
  fi_started : Sim_time.t;
  fi_span : int option;  (** telemetry span id when a tracer is attached *)
  fi_parent : parent_info;
  fi_calls : int list;  (** outstanding remote call sequence numbers *)
}

val open_frames : shared -> Site_id.t -> frame_info list
(** Still-open activation frames at a site, oldest first. The state
    inspector dumps these, and dgc-san's lost-trace proof names the
    unanswered calls they still wait on. *)

type residue = { rs_frames : int; rs_memo : int; rs_visited : int }
(** Per-site footprint a trace still occupies: open activation frames,
    call-memo entries, visited marks. *)

val residue : shared -> (Trace_id.t * (Site_id.t * residue) list) list
(** Every trace with non-zero footprint anywhere, sorted by trace id
    (sites sorted within). The lost-trace leak detector asks this and
    then proves no continuation path can ever clear the footprint. *)

val stats : shared -> (Trace_id.t * trace_stat) list
(** Sorted by trace id. *)

val approx_bytes : shared -> int
(** Estimated bytes of back-trace residue across all sites — open
    activation frames, call-memo entries, visited marks — under the
    fixed size model of [Tables.approx_bytes]. Feeds the
    [bytes.back_trace] gauge; this is exactly the state a lost report
    would leak, so a flat-lining gauge is the healthy shape. *)

val visited_cells : shared -> int
(** Visited marks held across all sites, as a running count: the sum
    of every trace's [rs_visited] in {!residue}. {!approx_bytes} reads
    it instead of walking the marks. *)

val find_stat : shared -> Trace_id.t -> trace_stat option

val ledger_row : Trace_id.t -> trace_stat -> Dgc_profile.Ledger.row
(** The trace's cost-ledger row. *)

val ledger_rows : shared -> Dgc_profile.Ledger.row list
(** Every trace's ledger row, sorted by the trace id's string form
    (["TS0.10"] before ["TS0.2"]; {!stats} sorts by {!Trace_id.compare}):
    the order of the [dgc.profile/1] ledger section. *)

val on_outcome : shared -> (Trace_id.t -> Verdict.t -> Site_id.Set.t -> unit) -> unit
(** Register an observer called at the initiator when a trace
    completes (before reports are delivered). *)

val timer_key_call : Trace_id.t -> site:Site_id.t -> int -> string
(** Stable sanitizer label of the §4.6 per-call timeout the caller
    [site] arms for call sequence number [seq] of the trace. *)

val timer_key_ttl : Trace_id.t -> site:Site_id.t -> string
(** Stable sanitizer label of the visited-marks TTL a participant
    [site] arms for the trace. *)
