(** Format of the per-back-trace cost ledger.

    End-to-end attribution of protocol budget per trace id: messages
    and bytes by payload kind, frames, calls, retries, memo hits,
    timeouts, reports, and the sim-time critical path from the first
    §4.3 trigger to the §4.5 conclusion. Rolled up into
    messages-per-collected-cycle and bytes-per-collected-cycle — the
    Allen & Terriberry-style overhead figure a distributed cycle
    collector pays for each cycle it actually reclaims.

    The collector records these costs itself, always, in its per-trace
    record ([Back_trace.trace_stat]); [Back_trace.ledger_rows] turns
    that record into the rows below. This module only owns the
    format: the rollup, the audit evidence line, and the writer and
    validator of the [dgc.profile/1] ["ledger"] section.

    Every quantity is derived from the deterministic simulation
    (counts and sim timestamps), so two same-seed runs produce
    byte-identical ledger JSON. *)

module Json = Dgc_telemetry.Json

type row = {
  e_trace : string;
  e_root : string;
  e_started : float;  (** sim seconds *)
  e_concluded : float option;  (** sim seconds *)
  e_outcome : string option;  (** ["garbage"] or ["live"] *)
  e_frames : int;
  e_calls : int;
  e_retries : int;
  e_memo_hits : int;
  e_timeouts : int;
  e_reports : int;
  e_kinds : (string * int * int) list;
      (** (payload kind, messages, bytes), sorted by kind *)
}
(** One back trace's costs. *)

val msg_total : row -> int
val byte_total : row -> int
val critical_path_ms : row -> float option

val describe : row -> string
(** One audit-quality evidence line naming every cost field. *)

type rollup = {
  r_traces : int;
  r_collected : int;  (** traces concluded Garbage *)
  r_live : int;
  r_msgs : int;
  r_bytes : int;
  r_frames : int;
  r_retries : int;
  r_memo_hits : int;
  r_msgs_per_cycle_milli : int;
      (** 1000 × total msgs / collected (integer; 0 when none collected) *)
  r_bytes_per_cycle_milli : int;
}

val rollup : row list -> rollup

val to_json : row list -> Json.t
(** The ["ledger"] section: the rows in the order given, then their
    rollup. [Back_trace.ledger_rows] gives trace-id string order. *)

val validate : Json.t -> (unit, string) result
(** Shape-check a ledger section produced by {!to_json}. *)
