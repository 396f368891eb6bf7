(** The flight recorder: always-on, bounded binary rings.

    One ring of bytes per site (plus a global ring for site-less
    events: faults, journal mirror) records engine events, span edges
    and journal entries as compact length-prefixed binary frames.
    Writing is a few blits. A ring's buffer starts empty and grows
    as records arrive, up to the capacity, so a short run pays for
    what it records; once a ring is full at its capacity the oldest
    whole records are evicted and writing no longer allocates. The
    recorder always holds the causally-relevant last-N events per site
    at O(capacity) memory, and its counters and dumps are those of a
    ring allocated at full capacity up front.

    On an invariant violation, campaign failure or an explicit
    [--dump-flight], the rings are snapshotted into a ["dgc.flight/1"]
    JSON artifact: the intern table, then per ring the site, the
    written/evicted counters and the live region as hex, oldest record
    first. {!of_json} decodes strictly — truncated frames, unknown
    kinds, dangling string ids or non-canonical hex are rejected — and
    {!to_json} of a parsed dump is byte-identical to the original
    document.

    Record layout (little-endian), framed as [u16 length ++ body]:
    {v
      body := u8  kind        (1=send 2=deliver 3=drop 4=fault
                               5=journal 6=span-start 7=span-end 8=timer)
              u16 tag         (intern-table index: msg kind, journal
                               category, span name, fault kind)
              i32 a, i32 b    (kind-specific: src/dst sites, span id
                               and parent, journal level)
              f64 at          (simulated seconds, IEEE-754 bits)
              u16 plen ++ payload bytes (free text, clamped to 255)
    v} *)

type kind =
  | Send
  | Deliver
  | Drop
  | Fault
  | Journal
  | Span_start
  | Span_end
  | Timer

val kind_name : kind -> string

type event = {
  ev_kind : kind;
  ev_at : float;  (** simulated seconds *)
  ev_a : int;
  ev_b : int;
  ev_tag : string;
  ev_payload : string;
}

type t

val create : ?capacity:int -> n_sites:int -> unit -> t
(** [capacity] is bytes per ring (default 32768, minimum 1024): the
    size a ring grows to before it evicts. Rings exist for sites
    [0 .. n_sites-1] plus the global ring ([site:-1]). *)

val capacity : t -> int
val n_sites : t -> int

val record :
  t ->
  site:int ->
  at:float ->
  kind:kind ->
  ?a:int ->
  ?b:int ->
  ?tag:string ->
  ?payload:string ->
  unit ->
  unit
(** Append one record to the ring of [site] ([-1] for the global
    ring; out-of-range sites are ignored). [a]/[b] default to [-1],
    [tag]/[payload] to [""]. Payloads are truncated to 255 bytes. *)

val written : t -> site:int -> int
(** Records ever written to the ring (including evicted ones). *)

val evicted : t -> site:int -> int

(** {1 Dump artifact} *)

val schema : string
(** ["dgc.flight/1"]. *)

type dump

val dump : t -> reason:string -> at:float -> dump
(** Snapshot every ring (linearized oldest-first). Recording may
    continue afterwards; the dump is independent of the live rings. *)

val reason : dump -> string
val dump_at : dump -> float

val sites : dump -> int list
(** Ring owners present in the dump, [-1] (global) first. *)

val events : dump -> site:int -> event list
(** Decoded records of one ring, oldest first; [] for an absent site. *)

val to_json : dump -> Json.t
val of_json : Json.t -> (dump, string) result
(** Strict: a document not produced by {!to_json} (truncated frame,
    bad kind, dangling intern index, odd or non-canonical hex, wrong
    schema) is an [Error]. [to_json (of_json d)] re-serializes to the
    exact original bytes. *)
