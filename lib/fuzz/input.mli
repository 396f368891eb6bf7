(** Fuzz inputs = corpus files.

    The fuzzer mutates exactly what the regression corpus stores: a
    ["dgc.plan/1"] fault plan with its campaign envelope (workload,
    seed, horizon) or a ["dgc.schedule/1"] explorer deviation schedule
    with its SUT. One codec serves three masters — the corpus replay
    test, the fuzzer's seed loading, and reproducer auto-promotion —
    so a promoted file is replayable by construction. *)

open Dgc_rts

type plan_case = {
  pi_workload : string;
  pi_seed : int;
  pi_horizon_ms : float;
  pi_plan : Dgc_chaos.Plan.t;
}

type sched_case = {
  si_sut : string;  (** a {!Dgc_analysis.Sut} catalog name *)
  si_max_steps : int;
  si_schedule : Dgc_analysis.Shrink.deviation list;
}

type t = Plan_input of plan_case | Schedule_input of sched_case

type meta = {
  m_expect : string option;
      (** expected failure kind on replay ({!Dgc_chaos.Campaign.failure_kind}
          vocabulary); [None] = must replay clean *)
  m_tweaks : string list;  (** named config tweaks to arm, in order *)
  m_comment : string option;
}

val no_meta : meta

val kind_name : t -> string
(** ["plan"] or ["schedule"]. *)

val tweak_of_name : string -> (Config.t -> Config.t) option
(** The corpus tweak vocabulary: ["sanitize"], ["no_timeouts"],
    ["broken_transfer_barrier"]. *)

val tweak_all : string list -> Config.t -> Config.t
(** Compose known tweaks left to right; raises [Invalid_argument] on an
    unknown name. *)

val to_json : ?meta:meta -> t -> Dgc_telemetry.Json.t
(** The corpus-file document (schema, envelope, expect/tweaks/comment
    when given, events or schedule). Deterministic field order. *)

val of_json : Dgc_telemetry.Json.t -> (t * meta, string) result
(** Accepts both schemas. Plan envelopes default like the historical
    corpus reader: workload ["churn"], seed 1, horizon 60000ms;
    schedules default to 400 max steps. A ["tweak"] name outside
    {!tweak_of_name}'s vocabulary is an [Error], so a misspelt tweak
    fails at load, not when a replay applies it. *)

val case_of_plan : name:string -> plan_case -> Dgc_chaos.Campaign.case
(** The campaign case a plan input replays as. *)
