(** Corpus-input mutators.

    Structure-aware mutations over {!Input.t}: fault-plan windows are
    shifted, stretched, split, merged, re-parameterized, added,
    dropped, reseeded or crossed over with a mate; explorer schedules
    get deviation add/drop/step/rank tweaks and splicing. Every
    operator preserves validity — a mutated plan always passes
    [Plan.validate ~sites] (the qcheck property in [test_fuzzer.ml]
    holds them to this) and a mutated schedule stays inside
    [max_steps]/[width] — so the fuzzer never wastes an execution on a
    rejected input. All draws come from the caller's rng stream;
    mutation is a pure function of (rng state, input, mate). *)

open Dgc_prelude

val mutate :
  rng:Rng.t ->
  sites:int ->
  horizon_ms:float ->
  max_steps:int ->
  width:int ->
  ?mate:Input.t ->
  Input.t ->
  string * Input.t
(** Pick an operator (uniformly; crossover only offered when [mate]
    has the same shape) and apply it. Returns the operator name and
    the mutated input. [sites] bounds crash/partition sites for the
    input's workload; [horizon_ms] bounds window open times;
    [max_steps]/[width] bound schedule deviations. *)

val random_plan :
  rng:Rng.t ->
  workload:string ->
  sites:int ->
  horizon_ms:float ->
  events:int ->
  Input.t
(** A fresh random plan input (random seed, [Plan.random] events) —
    the cold-corpus bootstrap and the uniform-random baseline arm. *)

val random_schedule :
  rng:Rng.t -> sut:string -> max_steps:int -> width:int -> Input.t
(** A fresh random schedule input: 1–4 random deviations. *)
