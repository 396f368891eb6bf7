(** Object identifiers.

    An object lives at exactly one site for its whole life (no
    migration in the core scheme; the migration baseline models moved
    objects as fresh copies). An [Oid.t] therefore both names an object
    and identifies its owner site. An {e inref} is identified by the
    reference it contains (§2), i.e. by the target's [Oid.t]; likewise
    an outref.

    An oid is an immediate value: the site and the local index packed
    into one int. It costs no allocation, field lists and arrays of
    oids hold it unboxed, and {!compare} is integer order, which is
    lexicographic [(site, index)] order. *)

open Dgc_prelude

type t [@@immediate]

val make : site:Site_id.t -> index:int -> t
(** Raises [Invalid_argument] unless [site < 2^22] and
    [0 <= index < 2^40]. *)

val site : t -> Site_id.t
val index : t -> int
val equal : t -> t -> bool

val compare : t -> t -> int
(** Lexicographic on [(site, index)]. *)

val hash : t -> int
(** [site * 1_000_003 + index]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
(** The text {!pp} prints (["S2/o7"]), built without a formatter. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Tbl : Hashtbl.S with type key = t
