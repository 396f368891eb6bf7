(** Deterministic pseudo-random streams.

    All randomness in the simulator flows through a single [t] created
    from a seed, so that every run is reproducible from its seed. *)

type t

val create : seed:int -> t

val split : t -> t
(** [split t] is a new independent stream derived from [t]; drawing from
    one does not perturb the other. *)

val int : t -> int -> int
(** [int t n] is uniform in [0, n). Requires [n > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [lo, hi] inclusive. *)

val float : t -> float -> float
(** [float t x] is uniform in [0, x). *)

val float_in : t -> float -> float -> float
(** [float_in t lo hi] is uniform in [lo, hi). *)

val bool : t -> bool
val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)

val choose : t -> 'a list -> 'a
(** Uniform choice from a non-empty list. Raises [Invalid_argument] on
    an empty list. *)

val choose_arr : t -> 'a array -> 'a
val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of [0..n-1]. *)
