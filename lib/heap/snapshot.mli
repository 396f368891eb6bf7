(** Frozen copies of a heap's reference structure.

    The non-atomic local trace of §6.2 computes over the object graph
    as it stood when the trace began (snapshot-at-beginning): mutations
    during the trace window do not affect the computation, and objects
    allocated during the window are treated as live by the sweep.

    A snapshot is the heap's {!Dense} capture plus its persistent-root
    list in captured order; nothing else is copied. *)

type t

val take : Heap.t -> t
(** Capture the current adjacency, object set, persistent roots and
    allocation clock of [heap] with {!Dense.of_heap}: O(bound) while
    the heap's shape is unchanged since its last capture, else one pass,
    O(objects + references). *)

val dense : t -> Dense.t
(** The captured graph the trace loops run over. *)

val mem : t -> Oid.t -> bool
val fields : t -> Oid.t -> Oid.t list
(** [] for objects absent from the snapshot. *)

val persistent_roots : t -> Oid.t list
val alloc_clock : t -> int
(** Allocation clock at capture time: objects of the underlying heap
    with an index [>= alloc_clock t] were created after the snapshot. *)

val object_count : t -> int
