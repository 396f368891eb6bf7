(** Back-trace identifiers.

    Each back trace is identified by the site that initiated it and a
    per-site sequence number (§4.7: "The site starting a trace assigns
    it a unique id"). *)

type t = { initiator : Site_id.t; seq : int }

val make : initiator:Site_id.t -> seq:int -> t
val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** The text {!pp} prints (["TS0.3"]), built without a formatter. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
