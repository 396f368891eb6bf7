(** Canonical, shared outsets with memoized unions (§5.2).

    An outset is a set of suspected outrefs. During the bottom-up
    computation the same outsets recur constantly — objects in a chain
    or a strongly connected component share one — so outsets are
    hash-consed: each distinct set is stored once and named by an
    integer id, and the results of unions are memoized on pairs of
    ids. Re-doing a memoized union is O(1).

    A store lives for one local trace and is discarded afterwards;
    only the resulting per-inref outsets (plain lists) are retained,
    as in the paper. Every cache (interning table, union memo) is
    per-instance, never module-level. *)

open Dgc_heap

type t

type id = int
(** Concrete so callers can keep ids in [int array] workspaces (the
    trace hot path); treat as opaque otherwise. Only ids produced by
    the same store are meaningful. *)

(** [create ?memoize ()] — [memoize] (default true) controls the union
    memo table, the §5.2 optimization. Disable only for the ablation
    bench; results are identical either way. *)
val create : ?memoize:bool -> unit -> t
val empty : t -> id
val singleton : t -> Oid.t -> id
(** Interns [{r}]: one hash lookup per call, so a caller that asks for
    the same singleton often keeps the id (the §5 trace keeps one per
    outref). *)

val union : t -> id -> id -> id
val add : t -> id -> Oid.t -> id
val elements : t -> id -> Oid.t list
(** Ascending by {!Oid.compare}. *)

val cardinal : t -> id -> int
val is_empty_id : t -> id -> bool

type stats = {
  distinct : int;  (** distinct outsets interned *)
  union_calls : int;
  memo_hits : int;
  elements_stored : int;  (** total size of all interned sets *)
}

val stats : t -> stats

val approx_bytes : t -> int
(** Estimated bytes held by the interned sets and the union memo,
    under the fixed 8-byte-word size model shared with
    [Tables.approx_bytes]. The trace-workspace component of the
    memory-accounting gauges. *)
