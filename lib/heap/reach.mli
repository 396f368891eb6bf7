(** Local reachability over one site's object graph.

    "Locally reachable" follows §4.1, footnote 1: a reference [b] is
    locally reachable from reference [a] if there is a path of zero or
    more local references from the object [a] names to an object
    containing [b].

    Both queries run over a frozen {!Dense} capture and read nothing
    else: take it with [Dense.of_heap] right before computing over it,
    or from a {!Snapshot}. *)

val closure : Dense.t -> from:Oid.t list -> Oid.Set.t * Oid.Set.t
(** [closure d ~from] is [(locals, remotes)]: the set of local objects
    reachable from the starting references by local paths, and the set
    of remote references contained in those objects (plus any starting
    references that are themselves remote). Starting references naming
    absent local objects are ignored. *)

val reaches : Dense.t -> src:Oid.t -> dst:Oid.t -> bool
(** [reaches d ~src ~dst]: [dst] is locally reachable from [src]
    (including [src = dst]). Early-exit membership test — does not
    materialize the closure. *)
