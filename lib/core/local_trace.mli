(** The local forward trace, extended per §3 and §5.

    One pass does four jobs:
    - mark live local objects (roots: persistent roots, application
      roots, non-flagged inrefs);
    - propagate distances from inrefs to outrefs, tracing inrefs in
      increasing distance order (§3);
    - classify iorefs as clean or suspected against the threshold Δ;
    - compute the outsets of suspected inrefs — equivalently the insets
      of suspected outrefs — by the §5.2 bottom-up algorithm (fused
      Tarjan SCC + memoized outset unions), or by §5.1 independent
      tracing for comparison.

    [compute] is pure with respect to the site: it reads a sampled
    {!input} and returns an {!outcome}. [apply] installs an outcome
    into the site's tables atomically — the §6.2 "new copy replaces the
    old" step — sweeps the heap, emits update messages, and replays the
    transfer-barrier cleans that happened during the trace window. *)

open Dgc_prelude
open Dgc_heap
open Dgc_rts

type mode =
  | Bottom_up  (** §5.2: every object scanned once, SCC-aware *)
  | Independent  (** §5.1: one full trace per suspected inref *)
  | Naive_bottom_up
      (** §5.2's rejected "first cut": single-scan bottom-up without
          strongly-connected-component handling. Deliberately incorrect
          in the presence of back edges (Figure 4) — kept to
          demonstrate why the SCC machinery is needed. Never use it in
          a real collector. *)

type input = {
  in_site : Site_id.t;
  in_graph : Dense.t;  (** the captured object graph and object set *)
  in_roots : Oid.t list;  (** persistent + application roots (distance 0) *)
  in_inrefs : (Oid.t * int * bool) list;  (** target, distance, flagged *)
  in_outrefs : Oid.t list;
  in_delta : int;
}

val input_of_site : Engine.t -> Site.t -> input
(** Sample the site's current state (atomic trace):
    [input_of_snapshot] over a snapshot taken now. *)

val input_of_snapshot : Engine.t -> Site.t -> Snapshot.t -> input
(** Graph and object set from the snapshot (taken at window start);
    roots and tables sampled now — call this at window start too. *)

type stamp
(** What the site's next {!input} would be made of, read without taking
    a capture: the heap's capture generation ({!Heap.generation}) and
    free count ({!Heap.frees}), the {!Tables.version}, the root list
    and Δ. *)

val stamp : Engine.t -> Site.t -> stamp
(** O(1) apart from the root list. Read it before a capture to decide
    whether to take one, and again just after to record it: a capture
    that rebuilds moves the generation. *)

val same_input : stamp -> stamp -> bool
(** [same_input now before]: an input sampled now would equal the one
    sampled when [before] was read just after its capture, so
    [compute] (a pure function of its input) would return the same
    outcome. False whenever [now] was read after a shape change with
    no capture since. *)

type out_result = {
  o_ref : Oid.t;
  o_dist : int;
  o_suspected : bool;
  o_removed : bool;  (** untraced: drop and notify the target site *)
  o_inset : Oid.t list;
}

type in_result = {
  i_ref : Oid.t;
  i_suspected : bool;
  i_outset : Oid.t list;
}

type stats = {
  clean_visits : int;
  suspect_visits : int;  (** object scans; exceeds the object count in
                             [Independent] mode — that is §5.1's cost *)
  distinct_outsets : int;
  union_calls : int;
  memo_hits : int;
  inset_entries : int;  (** Σ |inset| over suspected outrefs *)
  suspected_inrefs : int;
  suspected_outrefs : int;
  workspace_bytes : int;
      (** [Outset_store.approx_bytes] of the trace's (discarded)
          workspace — the transient component of the memory-accounting
          taxonomy, sampled into the [bytes.trace_workspace] gauge *)
}

type outcome = {
  out_site : Site_id.t;
  dead : int list;  (** local indices to free *)
  out_results : out_result list;
  in_results : in_result list;
  ot_stats : stats;
}

type memo
(** A site's root-closure memo: the local indices the distance-0 root
    group marked clean, the remote references it reached (in
    first-reach order) and its visit count. It stays valid while the
    input has the physically same capture ([d_codes ==]: same build,
    so only frees happened since), the same root list element by
    element, and every index it marks is still present. *)

val memo : unit -> memo
(** An empty memo: the next [compute] with it misses. *)

val memo_stats : memo -> int * int
(** (hits, misses) over every [compute] given this memo. *)

val compute :
  ?mode:mode -> ?probe:(string -> unit) -> ?memo:memo -> input -> outcome
(** [probe] (for benchmarks) fires once per internal phase as it
    completes, with tags ["clean"], ["suspect"], ["assemble"].

    With [memo], a valid memo is replayed in place of tracing the root
    group, and a miss traces the group and records a new memo. The
    outcome is the same, byte for byte, with or without a memo:
    [clean_visits] counts objects marked clean, traced or replayed. *)

val apply : ?arrived:Oid.t list -> Engine.t -> Site.t -> outcome -> unit
(** Atomic swap (§6.2): free the dead objects, install the outcome's
    statuses, outsets, insets and distances, remove untraced outrefs
    and send the [Update]s for them.

    [arrived] (default none) are the references the transfer barrier
    recorded while the trace's window was open. The snapshot predates
    them, so the outcome may call one of them unreachable or suspected
    although it is now held at the site. One rule covers them: each is
    a root of the new copy. Its untraced outref is kept (as is a
    pinned one), and after the swap {!Engine.force_clean} runs over
    the list in arrival order, exactly as the barrier did on the old
    copy. Every suspected → clean transition, in the swap or in that
    step, raises the site's [h_ioref_cleaned] once (the §6.4
    notification). With [Config.oracle_checks], the sweep is verified
    against {!Dgc_oracle.Oracle} first. *)
