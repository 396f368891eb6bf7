(** Mattern's four-counter termination test, for the coordinator
    rounds of the marking baselines ({!Global_trace}, {!Group_trace}).

    Each round reads every participant's count of marks sent and
    received, where a repeated mark counts as received once. Marking
    is over when the marks received as one round counted them equal
    the marks sent as the next round counts them: then no mark was in
    flight when the first of the two rounds ended, and a site marks
    only when it starts marking or receives a mark. A lost mark is
    never received, so the test never passes and the caller stalls
    instead of sweeping. *)

open Dgc_prelude

type t

val create : sites:int -> t

val start_round : t -> participants:int -> unit
(** Forget the previous round's replies; the round is complete once
    [participants] distinct sites have replied. *)

val reply : t -> Site_id.t -> sent:int -> received:int -> bool
(** Record a site's counts for the current round; a repeated reply
    overwrites them. True once the round is complete. *)

val over : t -> bool
(** For a complete round: is marking over? If not, this round's
    received total is what the next round is compared with. *)
