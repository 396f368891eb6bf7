module Rng = Dgc_prelude.Rng

type t =
  | Fixed of Sim_time.t
  | Uniform of Sim_time.t * Sim_time.t
  | Exponential of Sim_time.t

let sample rng = function
  | Fixed d -> d
  | Uniform (lo, hi) ->
      if Sim_time.compare hi lo <= 0 then lo else Rng.float_in rng lo hi
  | Exponential mean ->
      (* Inverse-CDF sampling; clamp u away from 0 to avoid infinity. *)
      let u = Float.max 1e-12 (Rng.float rng 1.0) in
      mean *. -.Float.log u

let mean = function
  | Fixed d -> d
  | Uniform (lo, hi) -> (lo +. hi) /. 2.
  | Exponential m -> m

let pp ppf = function
  | Fixed d -> Format.fprintf ppf "fixed(%a)" Sim_time.pp d
  | Uniform (lo, hi) ->
      Format.fprintf ppf "uniform(%a,%a)" Sim_time.pp lo Sim_time.pp hi
  | Exponential m -> Format.fprintf ppf "exp(%a)" Sim_time.pp m
