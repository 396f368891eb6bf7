open Dgc_simcore

type check_level = Check_off | Check_step

let check_level_name = function Check_off -> "off" | Check_step -> "step"

type t = {
  n_sites : int;
  seed : int;
  trace_interval : Sim_time.t;
  trace_jitter : Sim_time.t;
  trace_duration : Sim_time.t;
  latency : Latency.t;
  ext_drop : float;
  ext_dup : float;
  retry_limit : int;
  defer_interval : Sim_time.t;
  delta : int;
  threshold2 : int;
  threshold_bump : int;
  back_call_timeout : Sim_time.t;
  visited_ttl : Sim_time.t;
  max_trace_starts : int;
  adaptive_threshold : bool;
  enable_transfer_barrier : bool;
  enable_clean_rule : bool;
  enable_timeouts : bool;
  oracle_checks : bool;
  check_level : check_level;
  sanitize : bool;
  flight_capacity : int;
  profile : bool;
      (** attach the deterministic sim-cost profiler; draws no
          randomness, so schedules are event-identical either way *)
}

let default =
  {
    n_sites = 4;
    seed = 42;
    trace_interval = Sim_time.of_minutes 1.;
    trace_jitter = Sim_time.of_seconds 5.;
    trace_duration = Sim_time.of_seconds 2.;
    latency = Latency.Uniform (Sim_time.of_millis 1., Sim_time.of_millis 10.);
    ext_drop = 0.;
    ext_dup = 0.;
    retry_limit = 0;
    defer_interval = Sim_time.zero;
    delta = 3;
    threshold2 = 8;
    threshold_bump = 6;
    back_call_timeout = Sim_time.of_seconds 10.;
    visited_ttl = Sim_time.of_seconds 30.;
    max_trace_starts = 4;
    adaptive_threshold = false;
    enable_transfer_barrier = true;
    enable_clean_rule = true;
    enable_timeouts = true;
    oracle_checks = true;
    check_level = Check_off;
    sanitize = false;
    flight_capacity = 32768;
    profile = false;
  }

let pp ppf t =
  Format.fprintf ppf
    "@[<v>sites=%d seed=%d Δ=%d Δ2=%d bump=%d interval=%a window=%a \
     latency=%a drop=%.2f dup=%.2f retries=%d barriers(t=%b,c=%b) \
     checks=%s@]"
    t.n_sites t.seed t.delta t.threshold2 t.threshold_bump Sim_time.pp
    t.trace_interval Sim_time.pp t.trace_duration Latency.pp t.latency
    t.ext_drop t.ext_dup t.retry_limit t.enable_transfer_barrier
    t.enable_clean_rule
    (check_level_name t.check_level)
