(** Liveness/progress watchdog.

    Attached to a collector, the watchdog re-checks progress every
    [check_interval] of simulated time (a [Step] subscriber of the
    engine's event stream) and raises an alert — a Warn journal entry
    in category ["watchdog"] plus a [watchdog.*] counter — the first
    time it sees:

    - {b stuck_frame}: an activation frame still open after
      [stuck_factor] × the §4.7 [back_call_timeout];
    - {b stuck_trace}: a back trace with no outcome (it never reached
      the §4.5 report phase) after the same deadline;
    - {b starved_threshold}: a suspected outref whose per-ioref back
      threshold has been bumped (§4.3) at least [starvation_bumps]
      times above the effective Δ2 while its distance stays below it,
      so no future local trace can re-trigger it;
    - {b surviving_garbage}: an oracle-known garbage object still
      uncollected [survive_rounds] whole rounds of local traces after
      the watchdog first saw it.

    Each alert fires once per subject (frame, trace, outref, object).
    The oracle check makes the watchdog a verification tool: it reads
    ground truth no real site could see. *)

open Dgc_prelude
open Dgc_simcore
open Dgc_core

type alert = {
  al_at : Sim_time.t;
  al_kind : string;  (** counter suffix: e.g. ["stuck_trace"] *)
  al_site : Site_id.t option;
  al_text : string;
}

type t

val attach :
  ?stuck_factor:float ->
  (* default 3.0 *)
  ?starvation_bumps:int ->
  (* default 4 *)
  ?survive_rounds:int ->
  (* default 3 *)
  ?check_interval:Sim_time.t ->
  (* default: the engine's [trace_interval] *)
  Collector.t ->
  t

val set_leak_probe : t -> (Trace_id.t -> string option) -> unit
(** Wire in a leak oracle (in practice dgc-san's lost-trace detector,
    passed as a closure so the watchdog stays sanitizer-agnostic). When
    the probe returns [Some evidence] for a trace, stuck_frame and
    stuck_trace alerts for it fire immediately and cite that causal
    evidence instead of waiting out the [stuck_factor] age heuristic. *)

val check_now : t -> alert list
(** Run every check immediately (regardless of the interval); returns
    the alerts newly raised by this check. *)

val alerts : t -> alert list
(** Every alert raised so far, oldest first. *)

val alert_counts : t -> (string * int) list
(** Alerts per kind, sorted by kind. *)

val pp : Format.formatter -> t -> unit
(** One line per alert, oldest first; a summary line when quiet. *)
