(** Per-site object store.

    Objects hold unordered multisets of references ("fields"); a
    reference may point to a local or a remote object. Persistent roots
    (§2) are designated local objects that serve as entry points. The
    store itself performs no collection: the collectors (the combined
    trace in the core library, the §7 baselines) decide which objects
    to {!free}, and call it through the core library's one guarded
    free path, [Sweep.free]. *)

open Dgc_prelude

type obj = private {
  oid : Oid.t;
  fields : Oid.t list;  (** outgoing references, duplicates allowed *)
  size : int;  (** abstract payload size, for migration-cost accounting *)
}
(** A read-only view of one live object, built by {!find}, {!get},
    {!iter} and {!fold}. The heap keeps no per-object record: it
    stores a field list and a size per local index beside its
    live-object bitset, so a view is a copy and later writes do not
    show in it. Readers that need only the fields use {!fields}. *)

type t

val create : Site_id.t -> t
val site : t -> Site_id.t

val alloc : ?size:int -> t -> Oid.t
(** Allocate a fresh object with no fields. [size] defaults to 1. *)

val bytes_resident : t -> int
(** Sum of the sizes of live objects, maintained incrementally (alloc
    adds, {!free} subtracts) so sampling it per trace round is O(1).
    Feeds the [bytes_resident{site=N}] gauge series. *)

val alloc_clock : t -> int
(** The index the next {!alloc} hands out (indices are never reused).
    An object whose index is at least a clock read at trace start was
    allocated after it, and snapshot-at-beginning sweeps treat it as
    live. *)

val mem : t -> Oid.t -> bool
(** True iff the object is local to this site and not freed: one byte
    of the live-object bitset the heap keeps in {!alloc}/{!free}. *)

val find : t -> Oid.t -> obj option
val get : t -> Oid.t -> obj
(** Raises [Not_found] if absent. *)

val fields : t -> Oid.t -> Oid.t list
(** [] for absent objects. *)

val add_field : t -> obj:Oid.t -> target:Oid.t -> unit
(** Raises [Not_found] if [obj] is absent. *)

val remove_field : t -> obj:Oid.t -> target:Oid.t -> bool
(** Remove one occurrence; false if none was present. *)

val clear_fields : t -> Oid.t -> unit

val retarget : t -> old_oid:Oid.t -> fresh:Oid.t -> unit
(** Rewrite every local object's references to [old_oid] into [fresh]
    (a migrated object's new local identity). *)

val add_persistent_root : t -> Oid.t -> unit
(** Raises [Invalid_argument] if the oid is not a live local object. *)

val persistent_roots : t -> Oid.t list

val iter : t -> (obj -> unit) -> unit
(** Live objects in ascending index order. *)

val fold : t -> init:'a -> f:('a -> obj -> 'a) -> 'a
(** {!iter} order. *)

val object_count : t -> int
val indices : t -> int list
(** Local indices of live objects, ascending: a scan of the live-object
    bitset. *)

val free : t -> int list -> int
(** Free the objects with the given local indices; absent indices are
    ignored; persistent roots are never freed. Returns the number
    actually freed. A freed index's fields and size are cleared:
    {!find} answers [None] for it and iteration skips it. *)

val mark :
  t -> marked:unit Oid.Tbl.t -> remote:(Oid.t -> unit) -> Oid.t list -> unit
(** Depth-first mark from the roots, the baselines' local trace: each
    present local object not yet in [marked] is added to it and its
    fields are visited; every reference to another site goes to
    [remote], in visit order. *)

val frees : t -> int
(** Objects freed so far: moves exactly when a {!free} frees one. *)

val generation : t -> int
(** Which build the cached capture is (a count of builds so far), or
    [-1] when the shape changed since the last {!capture}. Two equal
    non-negative readings mean no shape change happened between them:
    the next {!capture} reuses the same CSR arrays, and only
    {!frees} can have changed its live bitset. *)

(** {2 Dense capture}

    The frozen CSR export of the object graph that every trace reads;
    {!Dense} documents the fields and re-exports the type, and
    [Dense.of_heap] is the entry point. *)

type capture = {
  d_site : Site_id.t;
  d_bound : int;
  d_present : Bytes.t;
  d_roots : Bytes.t;
  d_start : int array;
  d_codes : int array;
  d_pool : Oid.t array;
  d_count : int;
}

val capture : t -> capture
(** The heap's graph now. The heap keeps its last capture and, until
    the {i shape} changes, answers with that capture's CSR arrays and
    persistent-root bitset plus a fresh copy of the live-object bitset
    and count. The shape changes on {!alloc}, {!add_field}, a
    successful {!remove_field}, {!clear_fields}, {!retarget} and a new
    {!add_persistent_root}; {!free} only clears live bits, so a freed
    index keeps its stale row in a reused capture. Captures are never
    mutated: later heap writes are not reflected in them. *)

val pp : Format.formatter -> t -> unit
