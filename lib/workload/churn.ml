open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts
open Dgc_core

type t = {
  sim : Sim.t;
  rng : Rng.t;
  gap : Latency.t;  (** exponential, the mean gap between an agent's steps *)
  mutable running : bool;
  mutable ops : int;
  agents : Mutator.t list;
}

let ops_done t = t.ops
let var_names = [| "v0"; "v1"; "v2"; "v3" |]
let pick_var t = Rng.choose_arr t.rng var_names

let random_op t agent =
  let eng = t.sim.Sim.eng in
  let held = Mutator.vars agent in
  let attempt =
    if held = [] then
      (* Bootstrap: grab a root or allocate. *)
      if Rng.bool t.rng then Mutator.load_root agent ~dst:(pick_var t)
      else Mutator.new_obj agent ~dst:(pick_var t)
    else begin
      let name, r = Rng.choose t.rng held in
      match Rng.int t.rng 8 with
      | 0 -> Mutator.load_root agent ~dst:(pick_var t)
      | 1 -> Mutator.new_obj agent ~dst:(pick_var t)
      | 2 -> begin
          (* Read a random field of a local held object. *)
          let heap = (Engine.site eng (Mutator.agent_site agent)).Site.heap in
          match Heap.fields heap r with
          | [] -> false
          | fields ->
              Mutator.read_field agent ~obj:name
                ~idx:(Rng.int t.rng (List.length fields))
                ~dst:(pick_var t)
        end
      | 3 ->
          let value, _ = Rng.choose t.rng held in
          Mutator.write agent ~obj:name ~value
      | 4 ->
          let target, _ = Rng.choose t.rng held in
          Mutator.unlink agent ~obj:name ~target
      | 5 -> Mutator.drop agent name
      | 6 ->
          let src, _ = Rng.choose t.rng held in
          Mutator.copy_var agent ~src ~dst:(pick_var t)
      | _ -> Mutator.travel agent ~via:name ~k:(fun () -> ())
    end
  in
  if attempt then t.ops <- t.ops + 1

(* Each agent's step closure is made once: a step runs one operation
   and schedules the next step after an exponential gap. *)
let schedule_agent t agent =
  let rec step () =
    if t.running then begin
      if not (Mutator.traveling agent) then random_op t agent;
      next ()
    end
  and next () =
    if t.running then
      Engine.schedule t.sim.Sim.eng ~delay:(Latency.sample t.rng t.gap) step
  in
  next ()

let start sim ~rng ~agents ~mean_op_gap =
  let eng = sim.Sim.eng in
  let n_sites = Array.length (Engine.sites eng) in
  let spawned =
    List.init agents (fun i ->
        Mutator.spawn sim.Sim.muts ~at:(Site_id.of_int (i mod n_sites)))
  in
  let t =
    {
      sim;
      rng;
      gap = Latency.Exponential mean_op_gap;
      running = true;
      ops = 0;
      agents = spawned;
    }
  in
  List.iter (fun a -> schedule_agent t a) spawned;
  t

let stop t =
  t.running <- false;
  List.iter
    (fun a ->
      if not (Mutator.traveling a) then
        List.iter (fun (name, _) -> ignore (Mutator.drop a name)) (Mutator.vars a))
    t.agents
