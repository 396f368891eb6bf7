(** Per-site state: heap, ioref tables, retention pins, and the hook
    points through which a collector scheme plugs into the runtime.

    A site is passive; the {!Engine} drives it. Collector schemes (the
    core back-tracing collector, or a baseline) install closures in
    [hooks]. Default hooks do nothing except that [h_run_local_trace]
    raises, so forgetting to install a collector is loud. *)

open Dgc_prelude
open Dgc_heap

type hooks = {
  mutable h_ref_arrived : Oid.t -> unit;
      (** §6.1 barrier point: reference [r] was transferred to or
          traversed at this site (including insert registration for a
          local [r]). Called after the runtime's table bookkeeping. *)
  mutable h_ioref_cleaned : Oid.t -> unit;
      (** the ioref identified by [r] (inref when [r] is local, outref
          otherwise) just turned from suspected to clean — the §6.4
          clean-rule point. Raised by {!pin}, by [Engine.force_clean]
          (the transfer barrier and a window's arrivals) and by a local
          trace's swap. *)
  mutable h_ext : src:Site_id.t -> Protocol.ext -> unit;
      (** a collector-specific message arrived *)
  mutable h_run_local_trace : unit -> unit;
      (** perform this site's local trace now (scheduled by the engine) *)
}

type t = {
  id : Site_id.t;
  heap : Heap.t;
  tables : Tables.t;
  mutable crashed : bool;
  mutable trace_epoch : int;  (** completed local traces *)
  pin_tbl : (int, Oid.t list) Hashtbl.t;
  labels : (string, string) Hashtbl.t;  (** interned metric names *)
  hooks : hooks;
}

val create : Site_id.t -> t

val metric_label : t -> string -> string
(** [metric_label t base] is ["base{site=N}"], formatted once per base
    and cached — metric emission on hot paths should not allocate a
    fresh label string per event. *)

val pin : t -> token:int -> Oid.t list -> unit
(** Retain [refs] until {!unpin} with the same token: local refs become
    extra roots; remote refs pin their outrefs (which must exist),
    making them clean — raising [h_ioref_cleaned] if that changed their
    status. Used for in-flight moves and the insert barrier. *)

val unpin : t -> token:int -> unit
(** Idempotent. *)

val pinned_local_roots : t -> Oid.t list
(** Local references currently pinned (extra trace roots). *)

val pinned_tokens : t -> int list

val fresh_outref_of_arrival :
  t -> Oid.t -> [ `Local | `Known | `Created of int ]
(** Table bookkeeping for a reference [r] arriving at this site
    (§6.1.2): [`Local] if [r] is one of this site's objects; [`Known]
    if an outref already existed; [`Created inc] if a fresh clean
    outref of incarnation [inc] was created (caller must run the
    insert protocol). *)
