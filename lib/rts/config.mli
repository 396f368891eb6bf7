(** Simulation and collector parameters.

    One record covers the runtime, the core collector and the
    baselines; baseline-only fields are ignored by the core collector
    and vice versa. The ablation toggles (transfer barrier, clean rule,
    §4.6 timeouts) exist so the benches can show that each mechanism is
    load-bearing; the §6.1.2 insert barrier has no toggle and always
    runs. *)

open Dgc_simcore

type check_level =
  | Check_off
      (** no checking during the run; the invariants are checked only
          where a caller asks ([Sim.check], scenario ends, [dgc_check]
          runs) *)
  | Check_step
      (** sanitizer mode: the full §6.1 per-step invariant battery runs
          after {e every} engine event; a violation raises
          [Invariants.Violation]. Orders of magnitude slower — meant
          for tests, fuzzing and the schedule explorer. *)

type t = {
  n_sites : int;
  seed : int;
  (* local GC schedule *)
  trace_interval : Sim_time.t;  (** time between local traces per site *)
  trace_jitter : Sim_time.t;  (** uniform jitter applied to each interval *)
  trace_duration : Sim_time.t;
      (** length of the non-atomic trace window (§6.2); [0] makes local
          traces atomic *)
  (* network *)
  latency : Latency.t;
  ext_drop : float;
      (** drop probability for collector (Ext) messages only; the base
          protocol (moves, inserts, updates) is reliable, back-trace
          traffic tolerates loss via timeouts (§4.6) *)
  ext_dup : float;
      (** duplicate-delivery probability for collector (Ext) messages
          only: the message is delivered once more with an independent
          latency. The base protocol stays exactly-once; the collector
          handlers are idempotent (dedup by trace id / call nonce), so
          duplication is a pure fault-model knob *)
  retry_limit : int;
      (** §4.6 hardening: how many times a back call whose reply has
          not arrived is re-sent before the caller finally assumes
          Live. [0] restores the paper's single-shot timeout. Reports
          are re-sent the same number of times (blind redundancy —
          receivers are idempotent), so a dropped report no longer
          strands a suspect until the next threshold bump *)
  defer_interval : Dgc_simcore.Sim_time.t;
      (** batch collector messages per destination and flush them on
          this period, modeling §4.7's "deferred and piggybacked"
          messages (one wire message per flush). Zero sends eagerly. *)
  (* distance heuristic (§3) and back tracing (§4) *)
  delta : int;  (** suspicion threshold Δ *)
  threshold2 : int;  (** back threshold Δ2 ≈ Δ + estimated cycle length *)
  threshold_bump : int;  (** δ added to an ioref's threshold per visit *)
  back_call_timeout : Sim_time.t;  (** caller assumes Live after this *)
  visited_ttl : Sim_time.t;
      (** participant clears visited marks (assuming Live) if no outcome
          report arrives in this long *)
  max_trace_starts : int;  (** back traces a site may initiate per trace *)
  adaptive_threshold : bool;
      (** §3: "if too many suspects are found live, the threshold
          should be increased". When on, the collector raises its
          effective Δ2 for newly suspected outrefs whenever abortive
          (Live) traces dominate recent outcomes. *)
  (* ablation toggles *)
  enable_transfer_barrier : bool;
  enable_clean_rule : bool;
  enable_timeouts : bool;
      (** the §4.6 silence-means-Live machinery: per-call timeouts
          (with their retry schedule) and the visited-marks TTL.
          Disabling it is an ablation that plants the "lost trace"
          defect — a crash then strands activation frames and memo
          entries forever, which the sanitizer's leak detector must
          prove (no continuation path: no reply in flight, no armed
          timer, callee down) *)
  (* verification *)
  oracle_checks : bool;
      (** assert oracle safety at every sweep: every collector, the
          core one and each baseline, frees through [Sweep.free] in the
          core library, which checks the oracle first *)
  check_level : check_level;
      (** how aggressively the §6.1 invariants are checked during a
          run; {!Check_step} is wired up by [Sim.make] as a [Step]
          subscriber of the engine's event stream *)
  sanitize : bool;
      (** arm the happens-before sanitizer (dgc-san): a subscriber
          that threads vector clocks through the engine's message and
          §4.6 timer events so the race and lost-trace detectors can
          order events causally. Off by default; on or off, runs are
          event-identical. The layers that can see
          [lib/sanitize] (campaigns, the explorer SUTs, the CLI) read
          this flag to decide whether to install the detectors *)
  flight_capacity : int;
      (** bytes per site for the always-on flight recorder's binary
          rings ([Sim.make] attaches one when positive; [0] disables
          it). The recorder draws no randomness and schedules nothing,
          so runs are event-identical with it on or off — only wall
          clock moves, which [bench/e2e] reports (ungated) as
          [telemetry.flight_overhead]. *)
  profile : bool;
      (** attach the deterministic sim-cost scope profiler ([Sim.make]
          creates one and the engine/collector scopes feed it). The
          per-trace cost ledger does not depend on it: the collector
          always records it, and a profile only renders it. Like the
          flight recorder the profiler draws no
          randomness and schedules nothing, so schedules are
          event-identical with it on or off; its work-unit sections
          are byte-identical across same-seed runs. [bench/e2e]
          reports its wall-clock overhead (ungated) as
          [trace.overhead]. Off by default. *)
}

val default : t
(** 4 sites, Δ=3, Δ2=8, millisecond latencies, minute-scale trace
    intervals, all barriers on, oracle checks on. *)

val pp : Format.formatter -> t -> unit
