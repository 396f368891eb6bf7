(** Baseline: complementary global marking trace (§7, [Ali85, JJ92]).

    Ordinary garbage is collected quickly by plain local tracing; a
    periodic global trace collects everything else, including
    inter-site cycles. The global trace marks from persistent and
    application roots only (inrefs are {e not} roots — that is what
    lets it collect cycles), propagating marks across sites. The first
    round or mark of an epoch that reaches a site starts the epoch
    there. Each coordinator round reads every site's count of marks
    sent and received; the coordinator broadcasts the sweep once the
    marks received as one round counted them equal the marks sent as
    the next round counts them ({!Four_counter}), so no
    mark is in flight. A lost mark stalls the epoch instead. Every
    sweep frees through {!Dgc_core.Sweep.free}.

    The known weakness this baseline exists to demonstrate: it needs
    the cooperation of {e every} site. One crashed site stalls the
    collection of all cyclic garbage in the system ({!collect} then
    never completes). Mutators are assumed quiescent during a global
    trace. *)

open Dgc_prelude
open Dgc_rts

type t

val install : Engine.t -> t
(** Install plain local tracing ({!Local_gc}) plus the global
    marking message handlers on every site. *)

val collect :
  t -> ?coordinator:Site_id.t -> on_done:(freed:int -> rounds:int -> unit) ->
  unit -> unit
(** Start one global collection. [on_done] fires after every site
    swept. If any participating site is crashed, the collection stalls
    and [on_done] never fires. *)

val running : t -> bool
