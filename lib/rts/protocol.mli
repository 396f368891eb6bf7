(** Inter-site messages.

    The base payloads implement §2's reference-listing machinery (plus
    the mutator-movement message that models reference transfer and
    traversal). Collector schemes extend [ext] with their own messages:
    the core library adds back-trace calls/replies/reports, the
    baselines add marking, timestamp-threshold and migration messages. *)

open Dgc_prelude
open Dgc_heap

type ext = ..

type payload =
  | Move of { agent : int; refs : Oid.t list; token : int }
      (** A mutator agent relocates to the destination site, carrying
          the references held in its variables. Each carried reference
          is thereby "transferred" in the §6.1 sense. [token] matches
          the eventual {!Move_ack}. *)
  | Move_ack of { token : int }
      (** Destination has registered every carried reference (all
          insert messages acknowledged); the sender may release its
          retention pins. *)
  | Insert of { r : Oid.t; by : Site_id.t; inc : int }
      (** To the owner of [r]: site [by] now holds an outref for [r],
          incarnation [inc] ({!Ioref.outref.or_inc}). *)
  | Insert_done of { r : Oid.t }
      (** Owner of [r] has registered the insert. *)
  | Update of { removals : (Oid.t * int) list; dists : (Oid.t * int) list }
      (** After a local trace at the sender: the sender no longer holds
          outrefs for [removals], each named with the incarnation it
          removed; its outref distances for [dists] changed (§2, §3).
          Base messages are not FIFO, so a removal can land after the
          [Insert] of a newer incarnation of the same outref; the
          owner ignores such a stale removal. *)
  | Ext of ext

val kind : payload -> string
(** Short label for metrics ("move", "insert", "update", ...). For
    [Ext] payloads, the label registered via {!register_ext_kind},
    falling back to ["ext"]. *)

val refs_carried : payload -> Oid.t list
(** Application references carried by the message — the ones a
    reachability oracle must treat as roots while the message is in
    flight. Control messages (updates, back-trace traffic) carry
    ioref names but confer no reachability, so they report []. *)

val register_ext_kind : (ext -> string option) -> unit
(** Collectors register a labeler for their [ext] constructors. *)

val register_ext_refs : (ext -> Oid.t list option) -> unit
(** Collectors whose [ext] messages carry application references that
    must stay live while in flight (e.g. migration payloads) register
    an extractor here; back-trace traffic carries only ioref names and
    needs none. *)

val is_ext : payload -> bool

(** {1 Dispatch table}

    Receivers of base-protocol messages implement one handler per
    constructor; {!dispatch} holds the single exhaustive match over
    [payload]. Adding a constructor therefore forces every receiver to
    grow a handler (missing-field type error) before the tree compiles
    again — handler coverage is checked by the compiler, not at
    runtime. *)

type 'ctx handlers = {
  h_move :
    'ctx -> src:Site_id.t -> agent:int -> refs:Oid.t list -> token:int -> unit;
  h_move_ack : 'ctx -> src:Site_id.t -> token:int -> unit;
  h_insert :
    'ctx -> src:Site_id.t -> r:Oid.t -> by:Site_id.t -> inc:int -> unit;
  h_insert_done : 'ctx -> src:Site_id.t -> r:Oid.t -> unit;
  h_update :
    'ctx ->
    src:Site_id.t ->
    removals:(Oid.t * int) list ->
    dists:(Oid.t * int) list ->
    unit;
  h_ext : 'ctx -> src:Site_id.t -> ext -> unit;
}

val dispatch : 'ctx handlers -> 'ctx -> src:Site_id.t -> payload -> unit

val base_kinds : string list
(** The {!kind} labels of the base constructors, in declaration order
    ([Ext] reported as ["ext"]). Conformance coverage accounting keys
    on these. *)

val approx_bytes : payload -> int
(** Rough wire size: a fixed per-message header plus per-reference and
    per-entry costs; [Ext] payloads report header + the registered
    refs. Used for byte-level cost comparisons (e.g. against the
    migration baseline, whose payloads carry whole objects). *)
