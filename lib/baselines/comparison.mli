(** EXP-C12's comparison run: back tracing or one §7 baseline on one
    seeded hypertext, measured against the oracle.

    The workload is [Graph_gen.hypertext] over the configuration's
    sites: 3 documents per site of 4 pages, 24 cross links, half the
    documents rooted, drawn from [cfg.seed]. The live set is taken
    after 1 s with nothing in flight; then the local-trace schedule
    starts and the collector runs for twenty 15 s steps. A global
    collection starts at each step while none is running, and Hughes
    runs a threshold round at each. With [cfg.oracle_checks] every
    sweep of every collector is checked ({!Dgc_core.Sweep.free}), so a
    live free raises [Oracle.Safety_violation]. *)

open Dgc_rts

type collector = Back_tracing | Global | Hughes | Group | Migration

val collectors : collector list
(** All five, back tracing first. *)

val name : collector -> string

type outcome = {
  lost : int;
      (** live objects at 1 s minus live objects at the end: 0 for a
          safe collector, since nothing mutates the graph (a migration
          moves an object without changing the count) *)
  cycles : int;  (** garbage cycles at 1 s: components of two or more *)
  collected : int;  (** of those, how many are gone by the end *)
  msgs : int;  (** every message sent ([msg.total]) *)
}

val config : seed:int -> ext_drop:float -> Config.t
(** 4 sites, traces every 10 s plus up to 1 s of jitter, atomic,
    Δ = 3, Δ2 = 6, uniform 1–10 ms latency (so messages reorder), the
    given loss for collector messages, and [oracle_checks] on. *)

val hypertext : collector -> Config.t -> outcome
(** One run as above. Hughes needs [cfg.ext_drop = 0]. *)
