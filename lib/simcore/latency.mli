(** Message latency models for the simulated network. *)

type t =
  | Fixed of Sim_time.t
  | Uniform of Sim_time.t * Sim_time.t  (** inclusive lower, exclusive upper *)
  | Exponential of Sim_time.t  (** mean *)

val sample : Dgc_prelude.Rng.t -> t -> Sim_time.t
val mean : t -> Sim_time.t

val pp : Format.formatter -> t -> unit
