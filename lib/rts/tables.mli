(** Per-site inref and outref tables (§2).

    Each table is a target → record index (insert, remove and
    [find_*] are O(1)) plus a target-ordered array of its records, the
    ordered view, brought up to date lazily when it is read. A read
    after a change builds a new array: one walk of the index collects
    the inserted records, which are sorted alone, and one merge pass
    drops the removed records and merges in the inserted ones. So a
    read costs O(n + m log m) for m inserts when the table changed,
    and nothing when it did not; the local trace reads each table once
    per trace.

    Every write that can change what a §5 local trace samples from the
    tables — an inref's or outref's existence, an inref's source
    distances, its [ir_flagged] — goes through this module and bumps
    {!version}. Every write that changes a size {!approx_bytes}
    models — source lists, visited sets, in/outsets — goes through it
    too, and keeps that count. *)

open Dgc_prelude
open Dgc_heap

type t

val create : Site_id.t -> t
val site : t -> Site_id.t

val version : t -> int
(** Bumped by every existence, source and flag write below: equal
    readings mean the sorted inref (target, distance, flagged) and
    outref target lists are unchanged. Other mutable ioref fields
    (suspicion, pins, insets, outsets, visited marks, ...) are outside
    it. *)

(** {1 Inrefs} *)

val find_inref : t -> Oid.t -> Ioref.inref option
(** O(1): one index lookup. *)

val ensure_inref : t -> Oid.t -> Ioref.inref
(** Find or create (fresh, no sources). Raises [Invalid_argument] if
    the oid is not local to this site. *)

val remove_inref : t -> Oid.t -> unit
(** O(1); the record's [ir_view] becomes -1. *)

val add_source : t -> Ioref.inref -> Site_id.t -> dist:int -> inc:int -> unit
(** Add or update; keeps the minimum of the old and new distance for an
    existing source (a conservative merge: §3 only lowers a source's
    distance on insert, update messages overwrite), and the maximum of
    the old and new outref incarnation [inc]. *)

val set_source_dist : t -> Ioref.inref -> Site_id.t -> dist:int -> unit
(** Overwrite (update-message semantics); no-op for unknown sources. *)

val remove_source : t -> Ioref.inref -> Site_id.t -> unit

val flag_inref : t -> Ioref.inref -> unit
(** Mark an inref confirmed garbage ([ir_flagged], §4.5). *)

val set_inref_outset : t -> Ioref.inref -> Oid.t list -> unit
(** Install [ir_outset]. *)

val visit_inref : t -> Ioref.inref -> Trace_id.t -> unit
(** Add the trace to [ir_visited] (§4.4). *)

val unvisit_inref : t -> Ioref.inref -> Trace_id.t -> unit
(** Remove the trace from [ir_visited]. *)

val iter_inrefs : t -> (Ioref.inref -> unit) -> unit
(** Index (hash) order, no allocation, no view read. Prefer this on hot
    paths where order is not observable (closures, mark sets, flag
    resets). *)

val inrefs : t -> Ioref.inref list
(** Sorted by target oid: the ordered view, plus one list cell per
    inref. Use where traversal order is observable:
    pretty-printing, snapshots, conformance checks, and anything that
    feeds deterministic statistics or tie-breaks. *)

val inref_array : t -> Ioref.inref array
(** Sorted by target oid: the ordered view's own array, shared with
    every other reader until the table changes, so it must not be
    written. A record removed later keeps its place here, with
    [ir_view] = -1. *)

val inref_count : t -> int

(** {1 Outrefs} *)

val find_outref : t -> Oid.t -> Ioref.outref option
val ensure_outref : t -> ?dist:int -> Oid.t -> Ioref.outref * bool
(** Find or create; the boolean is true when the outref was created
    (the caller must then run the insert protocol). A created outref
    gets the site's next incarnation ([Ioref.or_inc]). Raises
    [Invalid_argument] if the oid is local to this site. *)

val remove_outref : t -> Oid.t -> unit
(** O(1); the record's [or_view] becomes -1. *)

val set_outref_inset : t -> Ioref.outref -> Oid.t list -> unit
(** Install [or_inset]. *)

val visit_outref : t -> Ioref.outref -> Trace_id.t -> unit
val unvisit_outref : t -> Ioref.outref -> Trace_id.t -> unit

val iter_outrefs : t -> (Ioref.outref -> unit) -> unit
(** Index order; see {!iter_inrefs}. *)

val outrefs : t -> Ioref.outref list
(** Sorted by target oid; see {!inrefs}. *)

val outref_array : t -> Ioref.outref array
(** As {!inref_array}. *)

val outref_count : t -> int

val approx_bytes : t -> int
(** Estimated bytes held by the ioref tables under a fixed size model
    (8-byte words; record headers plus per-element costs for source
    lists, visited sets and in/outsets). O(1): a running count kept by
    the writes above, so it stays exact only while every source list,
    visited set and in/outset of a tabled ioref is written through
    them. Deterministic across runs — the [bytes_resident{site=N}]
    gauge and the bench gates rely on that — but an estimate, not a
    heap measurement. *)

val pp : Format.formatter -> t -> unit
