(** Inref and outref table entries.

    An inref records an incoming inter-site reference together with the
    list of source sites known to contain it (§2); an outref records an
    outgoing one. Both carry the distance-heuristic and back-tracing
    state of §§3–6. Fields used only by a particular baseline are
    grouped at the end and ignored by the core collector.

    Clean/suspected status follows §3 and §6: the status computed by
    the last completed local trace is cached in [*_suspected], and the
    barriers may force an ioref clean until the next trace completes
    ([*_forced_clean]). Iorefs created since the last completed trace
    ([*_fresh]) are clean — a brand-new source conservatively gets
    distance 1 (§3), and a brand-new outref is created clean
    (§6.1.2, case 4). *)

open Dgc_prelude
open Dgc_heap

type source = {
  src_site : Site_id.t;
  mutable src_dist : int;
  mutable src_inc : int;
      (** the newest incarnation of the source's outref that this inref
          has heard of, by [Insert] (see {!outref.or_inc}) *)
}

type inref = {
  ir_target : Oid.t;  (** the local object; identifies the inref *)
  mutable ir_sources : source list;
  mutable ir_flagged : bool;
      (** confirmed garbage by a back-trace report (§4.5): no longer a
          root for local traces; removed via regular update messages *)
  mutable ir_fresh : bool;
  mutable ir_forced_clean : bool;
  mutable ir_suspected : bool;
  mutable ir_back_threshold : int;
  mutable ir_visited : Trace_id.Set.t;
  mutable ir_outset : Oid.t list;
      (** suspected outrefs locally reachable from this inref, as of the
          last completed local trace (§5); meaningful when suspected *)
  (* Hughes baseline *)
  mutable ir_ts : float;
}

type outref = {
  or_target : Oid.t;  (** the remote object; identifies the outref *)
  or_inc : int;
      (** incarnation: drawn from a per-site counter when the outref is
          created, so an outref re-created after a removal carries a
          larger number than the removed one. [Insert] and each
          [Update] removal carry it, and the owner ignores a removal
          older than the source's latest insert: base messages on one
          channel may be reordered. *)
  mutable or_dist : int;
  mutable or_pins : int;
      (** insert-barrier / in-flight retention count; a pinned outref is
          clean and survives local traces (§6.1.2) *)
  mutable or_fresh : bool;
  mutable or_forced_clean : bool;
  mutable or_suspected : bool;
  mutable or_back_threshold : int;
  mutable or_visited : Trace_id.Set.t;
  mutable or_inset : Oid.t list;
      (** suspected inrefs this outref is locally reachable from (§4.1),
          as of the last completed local trace *)
  (* Hughes baseline *)
  mutable or_ts : float;
}

val infinity_dist : int
(** Stand-in for an unknown/unbounded distance. *)

val make_inref : ?threshold2:int -> Oid.t -> inref
(** Fresh inref with no sources; [threshold2] initializes
    [ir_back_threshold] (default {!infinity_dist}, i.e. never trigger
    until configured). *)

val make_outref : ?threshold2:int -> ?dist:int -> ?inc:int -> Oid.t -> outref

val inref_dist : inref -> int
(** Minimum source distance; {!infinity_dist} if no sources. *)

val find_source : inref -> Site_id.t -> source option
val source_sites : inref -> Site_id.t list

val inref_held : inref -> bool
(** The §6.1 machinery holds the inref clean: forced clean by a
    barrier, or fresh. *)

val outref_held : outref -> bool
(** The §6.1 machinery holds the outref clean: forced clean by a
    barrier, fresh, or pinned. *)

val inref_clean : delta:int -> inref -> bool
(** Clean status as seen between traces: held ({!inref_held}), or not
    suspected by the last trace. [delta] guards the degenerate case of
    an inref whose cached distance dropped below the threshold since
    the last trace (e.g. a new source at distance 1). *)

val outref_clean : outref -> bool
(** Held ({!outref_held}), or not suspected by the last trace. *)

val pp_inref : Format.formatter -> inref -> unit
val pp_outref : Format.formatter -> outref -> unit
