(** Per-site inref and outref tables (§2).

    Every write that can change what a §5 local trace samples from the
    tables — an inref's or outref's existence, an inref's source
    distances, its [ir_flagged] — goes through this module and bumps
    {!version}. *)

open Dgc_prelude
open Dgc_heap

type t

val create : Site_id.t -> t
val site : t -> Site_id.t

val version : t -> int
(** Bumped by every write below: equal readings mean the sorted inref
    (target, distance, flagged) and outref target lists are unchanged.
    Other mutable ioref fields (suspicion, pins, insets, ...) are
    outside it. *)

(** {1 Inrefs} *)

val find_inref : t -> Oid.t -> Ioref.inref option
val ensure_inref : t -> Oid.t -> Ioref.inref
(** Find or create (fresh, no sources). Raises [Invalid_argument] if
    the oid is not local to this site. *)

val remove_inref : t -> Oid.t -> unit

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

val iter_inrefs : t -> (Ioref.inref -> unit) -> unit
(** Unspecified order, no allocation — prefer this on hot paths where
    order is not observable (closures, mark sets, flag resets). *)

val inrefs : t -> Ioref.inref list
(** Sorted by target oid. Use where traversal order is observable:
    pretty-printing, snapshots, conformance checks, and anything that
    feeds deterministic statistics or tie-breaks. *)

val inref_count : t -> int

(** {1 Outrefs} *)

val find_outref : t -> Oid.t -> Ioref.outref option
val ensure_outref : t -> ?dist:int -> Oid.t -> Ioref.outref * bool
(** Find or create; the boolean is true when the outref was created
    (the caller must then run the insert protocol). A created outref
    gets the site's next incarnation ([Ioref.or_inc]). Raises
    [Invalid_argument] if the oid is local to this site. *)

val remove_outref : t -> Oid.t -> unit

val iter_outrefs : t -> (Ioref.outref -> unit) -> unit
(** Unspecified order; see {!iter_inrefs}. *)

val outrefs : t -> Ioref.outref list
(** Sorted by target oid; see {!inrefs}. *)

val outref_count : t -> int

val approx_bytes : t -> int
(** Estimated bytes held by the ioref tables under a fixed size model
    (8-byte words; record headers plus per-element costs for source
    lists, visited sets and in/outsets). Deterministic across runs —
    the [bytes_resident{site=N}] gauge and the bench gates rely on
    that — but an estimate, not a heap measurement. *)

val pp : Format.formatter -> t -> unit
