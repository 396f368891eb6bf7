(** A bounded journal of simulation events.

    A ring buffer of timestamped, categorized, severity-tagged
    one-line events. The engine and collectors write into it when one
    is attached; the CLI and debugging sessions read it back. Writing
    is O(1) and the buffer never grows beyond its capacity, so it can
    stay attached during long runs. *)

type level = Debug | Info | Warn

val level_name : level -> string
(** ["debug"], ["info"], ["warn"]. *)

val level_rank : level -> int
(** Debug < Info < Warn. *)

type entry = { at : Sim_time.t; level : level; cat : string; text : string }

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 2048 events. *)

val capacity : t -> int

val record : t -> ?level:level -> at:Sim_time.t -> cat:string -> string -> unit
(** [cat] is a short label ("back", "gc", "barrier", "fault", ...);
    [level] defaults to [Info]. *)

val add : t -> entry -> unit
(** Append a ready-made entry ({!record} builds one). *)

val recordf :
  t ->
  ?level:level ->
  at:Sim_time.t ->
  cat:string ->
  ('a, Format.formatter, unit, unit) format4 ->
  'a
(** Formatted {!record}. *)

val entries : ?cat:string -> ?min_level:level -> ?last:int -> t -> entry list
(** Oldest first; [cat] filters by category, [min_level] keeps entries
    at or above the given severity, [last] keeps only the most recent
    n (after filtering). *)

val events : ?cat:string -> ?last:int -> t -> (Sim_time.t * string * string) list
(** {!entries} without the severity, kept for tabular consumers. *)

val length : t -> int
(** Events currently retained (≤ capacity). *)

val total : t -> int
(** Events ever recorded (including overwritten ones). *)

val clear : t -> unit
val pp_entry : Format.formatter -> entry -> unit
val pp : Format.formatter -> t -> unit
