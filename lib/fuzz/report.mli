(** The ["dgc.fuzz/1"] artifact: what a fuzz campaign did and found.

    Coverage curve (cumulative distinct edges after every execution),
    bitmap summary, corpus composition, per-operator effectiveness,
    the failures discovered (with their promotion dedup keys), the
    count of sanitizer-blind executions, and — when the baseline arm
    ran — the same-budget uniform-random comparison. Deliberately free
    of wall-clock fields so two runs with the same seed produce
    byte-identical documents. *)

type op_stat = {
  op_name : string;
  op_tried : int;
  op_novel : int;  (** mutations that increased global coverage *)
  op_failed : int;  (** mutations whose execution failed the oracle *)
}

type found = {
  fd_kind : string;  (** {!Dgc_chaos.Campaign.failure_kind} vocabulary *)
  fd_input : string;  (** ["plan"] or ["schedule"] *)
  fd_exec : int;  (** execution index at discovery (0-based) *)
  fd_detail : string;
  fd_signature : int;  (** {!Coverage.signature} of the failing run *)
  fd_promoted : string option;  (** corpus filename when auto-promoted *)
}

type t = {
  r_name : string;
  r_seed : int;
  r_mode : string;  (** ["guided"] or ["random"] *)
  r_execs : int;  (** executions performed *)
  r_curve : int list;  (** cumulative distinct edges, one per exec *)
  r_map : Coverage.t;  (** the final global map *)
  r_pool_size : int;
  r_pool_plans : int;
  r_pool_schedules : int;
  r_promoted : int;  (** reproducers written to the corpus *)
  r_ops : op_stat list;
  r_found : found list;
  r_baseline : (int * int) option;  (** random arm: (execs, hits) *)
}

val schema : string
(** ["dgc.fuzz/1"]. *)

val to_json : t -> Dgc_telemetry.Json.t

val validate : Dgc_telemetry.Json.t -> (unit, string) result
(** Structural validation: required
    fields, int-typed curve of length [execs], monotone and ending at
    the bitmap's hit count, corpus arithmetic consistent. *)
