(** Dense, immutable export of a heap's object graph.

    The per-trace hot paths (clean phase, fused Tarjan suspect phase,
    dead-set scan) run over contiguous int-indexed arrays instead of
    closure-per-lookup [find]s. A [t] is a frozen capture of the graph
    at construction time — the §6.2 snapshot ({!Snapshot}) is one, with
    the root list alongside. Indices are heap object indices in
    [0, bound) where [bound] is the heap's allocation clock, adjacency
    is in CSR form, and roots are a bitset.

    Captures are cached per heap ({!Heap.capture}): until the heap's
    shape changes, consecutive captures share [d_start], [d_codes],
    [d_pool] and [d_roots] physically and differ only in their copy of
    the live-object bitset.

    The representation is exposed on purpose — the trace loops index
    [d_start]/[d_codes] directly. Invariants:

    - [d_start] has length [d_bound + 1]; a present object [i]'s field
      codes are [d_codes.(d_start.(i)) .. d_codes.(d_start.(i+1) - 1)],
      in exact field order (outset-union call order depends on it).
    - A code [c >= 0] is a local target index (check [present t c]:
      dangling references to freed local objects keep their index).
    - A code [c < 0] names [d_pool.(-c - 1)]: a remote reference, or —
      defensively — a local oid outside [0, bound). Pool numbering is
      not meaningful. Oids are immediate ints ({!Oid.t}), so the pool
      is a flat int array with no boxed element.
    - [d_present]/[d_roots] are byte-per-index bitsets holding 0 or 1
      per byte. An absent
      index's row may be stale (the object was freed after the arrays
      were built) and is never read: every reader checks [d_present]
      before it expands a row. *)

open Dgc_prelude

type t = Heap.capture = {
  d_site : Site_id.t;
  d_bound : int;  (** allocation clock at capture *)
  d_present : Bytes.t;  (** live-object bitset, length [d_bound] *)
  d_roots : Bytes.t;  (** persistent-root bitset, length [d_bound] *)
  d_start : int array;  (** CSR offsets, length [d_bound + 1] *)
  d_codes : int array;  (** field codes in field order *)
  d_pool : Oid.t array;  (** targets not encodable as a local index *)
  d_count : int;  (** live object count *)
}

val of_heap : Heap.t -> t
(** Captures the graph now; later heap writes are not reflected.
    O(bound) while the heap's shape is unchanged since its last
    capture, else one pass over the heap, O(objects + references). *)

val site : t -> Site_id.t
val bound : t -> int
val object_count : t -> int

val present : t -> int -> bool
(** False outside [0, bound). *)

val is_root : t -> int -> bool

val indices : t -> int list
(** Live indices, ascending — equals [Heap.indices] of the source heap
    at capture time, without the sort. *)

val covers : present:Bytes.t -> Bytes.t -> bool
(** [covers ~present marked]: every index set in [marked] is set in
    [present]. Both are 0-or-1 byte bitmaps and [present] is at least
    as long as [marked]; eight indices are tested per step. *)

val iter_set : Bytes.t -> (int -> unit) -> unit
(** [f i] for every index set in a 0-or-1 byte bitmap, ascending;
    all-clear runs of eight are skipped in one step. *)

val fields : t -> int -> Oid.t list
(** Object [i]'s captured fields decoded back to oids, in field order;
    [] for an index that is not present. *)
