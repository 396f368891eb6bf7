open Dgc_prelude
open Dgc_simcore
open Dgc_heap

type t = {
  id : int;
  mgr : manager;
  mutable at : Site_id.t;
  mutable vars : (string * Oid.t) list;  (** sorted by name, one per name *)
  mutable pin_token : int option;
  mutable traveling : bool;
  mutable arrival_k : (unit -> unit) option;
}

and manager = {
  eng : Engine.t;
  agents : (int, t) Hashtbl.t;
  mutable next_agent : int;
  (* metric handles, each registered on first record *)
  ops : int ref Lazy.t;
  ops_failed : int ref Lazy.t;
  failed_by : int ref Lazy.t array;  (** indexed by [failure_index] *)
}

(* Why an operation failed: counted under "mutator.op_failed.<name>". *)
type failure = Traveling | No_root | No_var | Remote_obj | Dead_obj | No_field

let failure_index = function
  | Traveling -> 0
  | No_root -> 1
  | No_var -> 2
  | Remote_obj -> 3
  | Dead_obj -> 4
  | No_field -> 5

let failure_names =
  [| "traveling"; "no_root"; "no_var"; "remote_obj"; "dead_obj"; "no_field" |]

let var_refs a = List.map snd a.vars

(* [vars] with [name] bound to [r] / unbound, still sorted. *)
let rec bind name r = function
  | (n, _) :: rest when String.equal n name -> (name, r) :: rest
  | ((n, _) as b) :: rest when String.compare n name < 0 ->
      b :: bind name r rest
  | l -> (name, r) :: l

let rec unbind name = function
  | [] -> []
  | (n, _) :: rest when String.equal n name -> rest
  | b :: rest -> b :: unbind name rest

let rec lookup name = function
  | [] -> None
  | (n, r) :: rest -> if String.equal n name then Some r else lookup name rest

(* Re-establish the agent's retention pin after any variable change. *)
let repin a =
  let s = Engine.site a.mgr.eng a.at in
  (match a.pin_token with Some tok -> Site.unpin s ~token:tok | None -> ());
  match var_refs a with
  | [] -> a.pin_token <- None
  | refs ->
      let tok = Engine.fresh_token a.mgr.eng in
      Site.pin s ~token:tok refs;
      a.pin_token <- Some tok

let manager eng =
  let counter name = lazy (Metrics.counter_ref (Engine.metrics eng) name) in
  let mgr =
    {
      eng;
      agents = Hashtbl.create 8;
      next_agent = 0;
      ops = counter "mutator.op";
      ops_failed = counter "mutator.op_failed";
      failed_by =
        Array.map (fun n -> counter ("mutator.op_failed." ^ n)) failure_names;
    }
  in
  Engine.set_agent_arrival eng (fun ~agent ~dst ->
      match Hashtbl.find_opt mgr.agents agent with
      | None -> ()
      | Some a ->
          (* The old site keeps the move pin until the move-ack; drop
             only the agent's own pin there. *)
          (match a.pin_token with
          | Some tok -> Site.unpin (Engine.site eng a.at) ~token:tok
          | None -> ());
          a.pin_token <- None;
          a.at <- dst;
          a.traveling <- false;
          repin a;
          let k = a.arrival_k in
          a.arrival_k <- None;
          (match k with Some k -> k () | None -> ()));
  Engine.set_extra_roots eng (fun site_id ->
      Hashtbl.fold
        (fun _ a acc ->
          if (not (a.traveling)) && Site_id.equal a.at site_id
          then
            var_refs a @ acc
          else acc)
        mgr.agents []);
  mgr

let spawn mgr ~at =
  let a =
    {
      id = mgr.next_agent;
      mgr;
      at;
      vars = [];
      pin_token = None;
      traveling = false;
      arrival_k = None;
    }
  in
  mgr.next_agent <- mgr.next_agent + 1;
  Hashtbl.add mgr.agents a.id a;
  a

let agent_site a = a.at
let traveling a = a.traveling

let vars a = a.vars
let var a name = lookup name a.vars

let fail a why =
  incr (Lazy.force a.mgr.ops_failed);
  incr (Lazy.force a.mgr.failed_by.(failure_index why));
  false

let ok a =
  incr (Lazy.force a.mgr.ops);
  true

let set_var a name r =
  a.vars <- bind name r a.vars;
  repin a

let ready a = not (a.traveling)

let load_root a ~dst =
  if not (ready a) then fail a Traveling
  else begin
    let s = Engine.site a.mgr.eng a.at in
    match Heap.persistent_roots s.Site.heap with
    | [] -> fail a No_root
    | r :: _ ->
        set_var a dst r;
        ok a
  end

let load_root_named a ~root ~dst =
  if not (ready a) then fail a Traveling
  else begin
    let s = Engine.site a.mgr.eng a.at in
    if List.exists (Oid.equal root) (Heap.persistent_roots s.Site.heap) then begin
      set_var a dst root;
      ok a
    end
    else fail a No_root
  end

let new_obj a ~dst =
  if not (ready a) then fail a Traveling
  else begin
    let s = Engine.site a.mgr.eng a.at in
    let r = Heap.alloc s.Site.heap in
    set_var a dst r;
    ok a
  end

let read_field a ~obj ~idx ~dst =
  if not (ready a) then fail a Traveling
  else
    match var a obj with
    | None -> fail a No_var
    | Some o ->
        if not (Site_id.equal (Oid.site o) a.at) then fail a Remote_obj
        else begin
          let s = Engine.site a.mgr.eng a.at in
          if not (Heap.mem s.Site.heap o) then fail a Dead_obj
          else
            match List.nth_opt (Heap.fields s.Site.heap o) idx with
            | None -> fail a No_field
            | Some r ->
                set_var a dst r;
                ok a
        end

let write a ~obj ~value =
  if not (ready a) then fail a Traveling
  else
    match (var a obj, var a value) with
    | None, _ | _, None -> fail a No_var
    | Some o, Some v ->
        if not (Site_id.equal (Oid.site o) a.at) then fail a Remote_obj
        else begin
          let s = Engine.site a.mgr.eng a.at in
          if not (Heap.mem s.Site.heap o) then fail a Dead_obj
          else begin
            Heap.add_field s.Site.heap ~obj:o ~target:v;
            ok a
          end
        end

let unlink a ~obj ~target =
  if not (ready a) then fail a Traveling
  else
    match (var a obj, var a target) with
    | None, _ | _, None -> fail a No_var
    | Some o, Some v ->
        if not (Site_id.equal (Oid.site o) a.at) then fail a Remote_obj
        else begin
          let s = Engine.site a.mgr.eng a.at in
          if Heap.remove_field s.Site.heap ~obj:o ~target:v then ok a
          else fail a No_field
        end

let drop a name =
  if not (ready a) then fail a Traveling
  else if Option.is_some (var a name) then begin
    a.vars <- unbind name a.vars;
    repin a;
    ok a
  end
  else fail a No_var

let copy_var a ~src ~dst =
  if not (ready a) then fail a Traveling
  else
    match var a src with
    | None -> fail a No_var
    | Some r ->
        set_var a dst r;
        ok a

let travel a ~via ~k =
  if not (ready a) then fail a Traveling
  else
    match var a via with
    | None -> fail a No_var
    | Some r ->
        let dst = Oid.site r in
        a.arrival_k <- Some k;
        if Site_id.equal dst a.at then begin
          (* Traversal within the site: no transfer, run k now. *)
          a.arrival_k <- None;
          k ();
          ok a
        end
        else begin
          a.traveling <- true;
          Engine.move_agent a.mgr.eng ~agent:a.id ~src:a.at ~dst
            ~refs:(var_refs a);
          ok a
        end

type instr =
  | Load_root of string
  | Load_root_named of Oid.t * string
  | New of string
  | Read of { obj : string; idx : int; dst : string }
  | Write of { obj : string; value : string }
  | Unlink of { obj : string; target : string }
  | Copy of { src : string; dst : string }
  | Travel of string
  | Drop of string
  | Wait of Sim_time.t

let run_program a ?(on_done = fun () -> ()) prog =
  let rec step = function
    | [] -> on_done ()
    | i :: rest -> begin
        match i with
        | Load_root dst ->
            ignore (load_root a ~dst);
            step rest
        | Load_root_named (root, dst) ->
            ignore (load_root_named a ~root ~dst);
            step rest
        | New dst ->
            ignore (new_obj a ~dst);
            step rest
        | Read { obj; idx; dst } ->
            ignore (read_field a ~obj ~idx ~dst);
            step rest
        | Write { obj; value } ->
            ignore (write a ~obj ~value);
            step rest
        | Unlink { obj; target } ->
            ignore (unlink a ~obj ~target);
            step rest
        | Copy { src; dst } ->
            ignore (copy_var a ~src ~dst);
            step rest
        | Drop v ->
            ignore (drop a v);
            step rest
        | Travel via ->
            if not (travel a ~via ~k:(fun () -> step rest)) then step rest
        | Wait d -> Engine.schedule a.mgr.eng ~delay:d (fun () -> step rest)
      end
  in
  step prog
