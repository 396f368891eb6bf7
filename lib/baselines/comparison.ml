open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts
open Dgc_core
open Dgc_workload
module Oracle = Dgc_oracle.Oracle

type collector = Back_tracing | Global | Hughes | Group | Migration

let collectors = [ Back_tracing; Global; Hughes; Group; Migration ]

let name = function
  | Back_tracing -> "back tracing"
  | Global -> "global trace"
  | Hughes -> "hughes"
  | Group -> "group trace"
  | Migration -> "migration"

type outcome = { lost : int; cycles : int; collected : int; msgs : int }

(* Strongly connected components of two or more garbage objects. *)
let garbage_cycles eng =
  let garbage = Array.of_list (Oid.Set.elements (Oracle.garbage_set eng)) in
  let index = Oid.Tbl.create (Array.length garbage) in
  Array.iteri (fun i r -> Oid.Tbl.replace index r i) garbage;
  let succ i =
    let r = garbage.(i) in
    Heap.fields (Engine.site eng (Oid.site r)).Site.heap r
    |> List.filter_map (Oid.Tbl.find_opt index)
  in
  let scc = Scc.tarjan ~n:(Array.length garbage) ~succ in
  let size = Array.make scc.Scc.count 0 in
  Array.iter (fun c -> size.(c) <- size.(c) + 1) scc.Scc.component;
  Array.fold_left (fun n s -> if s >= 2 then n + 1 else n) 0 size

let config ~seed ~ext_drop =
  {
    Config.default with
    Config.n_sites = 4;
    seed;
    delta = 3;
    threshold2 = 6;
    trace_interval = Sim_time.of_seconds 10.;
    trace_jitter = Sim_time.of_seconds 1.;
    trace_duration = Sim_time.zero;
    latency = Latency.Uniform (Sim_time.of_millis 1., Sim_time.of_millis 10.);
    ext_drop;
    oracle_checks = true;
  }

let step = Sim_time.of_seconds 15.
let steps = 20

let hypertext collector cfg =
  (* [arm] runs once the workload is built; it returns what the
     collector does at the start of each step. *)
  let eng, arm =
    match collector with
    | Back_tracing -> ((Sim.make ~cfg ()).Sim.eng, fun () () -> ())
    | Global ->
        let eng = Engine.create cfg in
        let gt = Global_trace.install eng in
        ( eng,
          fun () () ->
            if not (Global_trace.running gt) then
              Global_trace.collect gt ~on_done:(fun ~freed:_ ~rounds:_ -> ()) ()
        )
    | Hughes ->
        let eng = Engine.create cfg in
        ( eng,
          fun () ->
            let h = Hughes.install eng ~depth:(Oracle.max_distance eng) in
            fun () -> Hughes.run_threshold_round h () )
    | Group ->
        let eng = Engine.create cfg in
        ignore (Group_trace.install eng ~max_group:8);
        (eng, fun () () -> ())
    | Migration ->
        let eng = Engine.create cfg in
        ignore (Migration.install eng);
        (eng, fun () () -> ())
  in
  let rng = Rng.create ~seed:cfg.Config.seed in
  ignore
    (Graph_gen.hypertext eng ~rng ~docs_per_site:3 ~pages_per_doc:4
       ~cross_links:24 ~rooted_frac:0.5);
  Engine.run_for eng (Sim_time.of_seconds 1.);
  let live = Oid.Set.cardinal (Oracle.live_set eng) in
  let cycles = garbage_cycles eng in
  let at_step = arm () in
  Engine.start_gc_schedule eng;
  for _ = 1 to steps do
    at_step ();
    Engine.run_for eng step
  done;
  {
    lost = live - Oid.Set.cardinal (Oracle.live_set eng);
    cycles;
    collected = max 0 (cycles - garbage_cycles eng);
    msgs = Metrics.get (Engine.metrics eng) "msg.total";
  }
