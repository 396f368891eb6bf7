(** Small general-purpose helpers shared across the libraries. *)

val list_sum : ('a -> int) -> 'a list -> int

val list_take : int -> 'a list -> 'a list
val list_dedup : compare:('a -> 'a -> int) -> 'a list -> 'a list
(** Sort and remove duplicates. *)
