(** Site identifiers.

    A site is one node of the distributed object store. Sites are
    numbered densely from 0 so that simulator state can live in arrays
    indexed by site id. *)

type t = private int

val of_int : int -> t
(** [of_int i] is the id of site [i]. Raises [Invalid_argument] if
    [i < 0]. *)

val to_int : t -> int

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val to_string : t -> string
(** ["S3"] for site 3; {!pp} prints the same text. *)

val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

val set_of_list : t list -> Set.t
