(** The back-tracing collector: per-site orchestration.

    Installs the whole scheme on an engine's sites:
    - scheduled local traces run the §5 combined trace over a
      snapshot-at-beginning window (§6.2) and swap results in
      atomically;
    - the §6.1 transfer barrier cleans suspected iorefs when references
      arrive, recording window-time cleans for replay;
    - after each local trace, suspected outrefs whose distance crossed
      their back threshold start back traces (§4.3);
    - back-trace messages are dispatched to {!Back_trace}. *)

open Dgc_prelude
open Dgc_heap
open Dgc_rts

type t

val install : Engine.t -> t
(** Install hooks on every site of the engine. *)

val engine : t -> Engine.t
val back : t -> Back_trace.shared

val force_local_trace : t -> Site_id.t -> unit
(** Run one full (atomic) local trace at the site right now —
    convenient for tests and scenario setup. Does not trigger back
    traces. *)

val force_local_trace_all : t -> unit
(** {!force_local_trace} at every non-crashed site, in site order. *)

val trigger_back_traces : t -> Site_id.t -> Trace_id.t list
(** Start back traces from every eligible suspected outref at the site
    (distance above its back threshold), up to the configured
    per-trace-round cap; returns the ids started. Runs automatically
    after each scheduled local trace. *)

val start_back_trace : t -> Site_id.t -> Oid.t -> Trace_id.t option
(** Start a trace from a specific outref, ignoring thresholds. *)

val set_auto_back_traces : t -> bool -> unit
(** Enable/disable automatic triggering after scheduled traces
    (default on). The group-tracing and migration baselines reuse the
    distance machinery with this turned off. *)

val set_after_trace : t -> (Site_id.t -> unit) -> unit
(** Callback after every scheduled local trace completes at a site
    (baselines hang their own cycle detectors here). *)

val effective_threshold2 : t -> int
(** The back threshold applied to newly suspected outrefs. Equals the
    configured Δ2 unless [adaptive_threshold] raised it (§3's tuning
    suggestion, applied to the trigger threshold). *)

val in_window : t -> Site_id.t -> bool
(** A local trace window is currently open at the site. *)

val root_memo_stats : t -> int * int
(** (hits, misses) of the sites' root-closure memos
    ({!Local_trace.memo}) summed over every local trace so far. A
    reused trace (see {!reuse_stats}) counts as neither. *)

val reuse_stats : t -> int * int
(** (reused, computed) local traces summed over the sites. A trace
    whose input stamp ({!Local_trace.stamp}) equals the site's last
    one, once that stamp has repeated, installs the kept outcome
    without capturing or computing; every other trace computes. *)
