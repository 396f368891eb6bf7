(** The paper's stated invariants as runtime-checkable predicates.

    §6.1 proves safety from three named invariants; this module checks
    them against live system state so tests, fuzzers, the per-step
    sanitizer ([Config.Check_step]) and the schedule explorer can
    assert them at any point:

    - {b Local safety} ("For any suspected outref o, o.inset includes
      all inrefs o is locally reachable from"): every suspected
      outref's recorded inset covers the local-reachability ground
      truth recomputed from the heap.
    - {b Auxiliary} ("o.inset does not include any clean inref"):
      insets never name clean inrefs.
    - {b Remote safety} ("for any suspected inref i, either i.sources
      includes all remote sites containing i, or at least one of its
      corresponding outrefs is clean"): checked against every site's
      heaps and tables.

    Additionally:
    - {b Visited hygiene}: visited marks only on suspected iorefs
      belonging to live traces (approximated as: flagged inrefs aside,
      no marks on clean iorefs).
    - {b Distance sanity}: a recorded per-source distance estimates
      the shortest root path ending with that inter-site reference, so
      in a settled system it is at most one more than the true
      distance of some live holder of the reference at the source site
      (estimates are conservative and converge from below; garbage has
      no live holders, so any estimate is fine). The true distances
      are {!Dgc_oracle.Oracle.distances}: §3 counts every inter-site
      reference on the path, so an application root naming another
      site's object puts it at distance 1, as does a reference in an
      undelivered message.

    The three §6.1 invariants plus visited hygiene are maintained
    {e continuously} by the barriers, so {!per_step} may run after
    every engine event — that is what the schedule explorer and the
    [Check_step] sanitizer do. Distance sanity only converges in a
    settled system (a new shorter path transiently invalidates old
    estimates from above), so it is checked by {!check_all} only.

    During an open (non-atomic) trace window the site's tables hold
    the old copy (§6.2) and are not checkable; pass [?skip]
    (typically [Collector.in_window]) to exclude such sites. *)

open Dgc_prelude
open Dgc_heap
open Dgc_rts

type kind =
  | Local_safety
  | Auxiliary
  | Remote_safety
  | Visited_hygiene
  | Distance_sanity

type violation = {
  v_kind : kind;
  v_site : Site_id.t;  (** the site whose tables are inconsistent *)
  v_subject : Oid.t option;  (** the ioref target involved, if one *)
  v_message : string;
}

exception Violation of violation list
(** Raised by {!check_exn} (and thus by runs under
    [Config.Check_step]). Registered with [Printexc]. *)

val kind_name : kind -> string
val to_string : violation -> string
(** ["<kind>: <message>"], the historical string rendering. *)

val strings : violation list -> string list

val local_safety : ?skip:(Site_id.t -> bool) -> Engine.t -> violation list
val auxiliary : ?skip:(Site_id.t -> bool) -> Engine.t -> violation list
val remote_safety : ?skip:(Site_id.t -> bool) -> Engine.t -> violation list
val visited_hygiene : ?skip:(Site_id.t -> bool) -> Engine.t -> violation list
val distance_sanity : ?skip:(Site_id.t -> bool) -> Engine.t -> violation list

val per_step : ?skip:(Site_id.t -> bool) -> Engine.t -> violation list
(** The continuously-maintained invariants (everything except distance
    sanity); safe to run after every engine event. *)

val check_all : ?skip:(Site_id.t -> bool) -> Engine.t -> violation list
(** Every check, including settled-only distance sanity. *)

val check_exn : ?skip:(Site_id.t -> bool) -> Engine.t -> unit
(** Raise {!Violation} if {!per_step} reports anything. *)
