open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts

type Protocol.ext +=
  | G_round of { epoch : int; first : bool; coordinator : Site_id.t }
  | G_round_done of { epoch : int; dirty : bool }
  | G_mark of { epoch : int; refs : Oid.t list }
  | G_sweep of { epoch : int; coordinator : Site_id.t }
  | G_sweep_done of { epoch : int; freed : int }

let () =
  Protocol.register_ext_kind (function
    | G_round _ | G_round_done _ -> Some "g_round"
    | G_mark _ -> Some "g_mark"
    | G_sweep _ | G_sweep_done _ -> Some "g_sweep"
    | _ -> None)

type site_state = {
  gs_site : Site.t;
  mutable gs_epoch : int;
  gs_marked : unit Oid.Tbl.t;
  mutable gs_dirty : bool;
}

type active = {
  a_epoch : int;
  a_coordinator : Site_id.t;
  mutable a_round : int;
  mutable a_waiting : int;
  mutable a_all_clean : bool;
  mutable a_clean_streak : int;
  mutable a_sweep_freed : int;
  a_on_done : freed:int -> rounds:int -> unit;
}

type t = {
  eng : Engine.t;
  states : site_state array;
  mutable active : active option;
}

let running t = t.active <> None
let state t id = t.states.(Site_id.to_int id)

(* Mark locally from the given references; returns marks that escaped
   to other sites, grouped by destination. *)
let mark_from st refs =
  let outgoing = Hashtbl.create 8 in
  let remote r =
    let dst = Oid.site r in
    let q =
      match Hashtbl.find_opt outgoing dst with
      | Some q -> q
      | None ->
          let q = ref Oid.Set.empty in
          Hashtbl.add outgoing dst q;
          q
    in
    q := Oid.Set.add r !q
  in
  let marked =
    Heap.mark st.gs_site.Site.heap ~marked:st.gs_marked ~remote refs
  in
  (outgoing, marked > 0)

let send_marks t st outgoing =
  Hashtbl.iter
    (fun dst refs ->
      if not (Oid.Set.is_empty !refs) then begin
        st.gs_dirty <- true;
        Engine.send t.eng ~src:st.gs_site.Site.id ~dst
          (Protocol.Ext
             (G_mark { epoch = st.gs_epoch; refs = Oid.Set.elements !refs }))
      end)
    outgoing

let broadcast t ~src make =
  Array.iter
    (fun st ->
      Engine.send t.eng ~src ~dst:st.gs_site.Site.id
        (Protocol.Ext (make st.gs_site.Site.id)))
    t.states

let begin_round t a =
  a.a_round <- a.a_round + 1;
  a.a_waiting <- Array.length t.states;
  a.a_all_clean <- true;
  broadcast t ~src:a.a_coordinator (fun _ ->
      G_round
        { epoch = a.a_epoch; first = a.a_round = 1; coordinator = a.a_coordinator })

let settle_delay = Sim_time.of_seconds 1.

let handle t site_id ~src:_ ext =
  let st = state t site_id in
  match ext with
  | G_round { epoch; first; coordinator } ->
      st.gs_epoch <- epoch;
      if first then begin
        Oid.Tbl.reset st.gs_marked;
        st.gs_dirty <- false;
        let roots =
          Heap.persistent_roots st.gs_site.Site.heap
          @ Engine.app_roots t.eng site_id
        in
        let outgoing, _ = mark_from st roots in
        send_marks t st outgoing
      end;
      let dirty = st.gs_dirty in
      st.gs_dirty <- false;
      Engine.send t.eng ~src:site_id ~dst:coordinator
        (Protocol.Ext (G_round_done { epoch; dirty }));
      true
  | G_mark { epoch; refs } ->
      if epoch = st.gs_epoch then begin
        let outgoing, progressed = mark_from st refs in
        if progressed then st.gs_dirty <- true;
        send_marks t st outgoing
      end;
      true
  | G_round_done { epoch; dirty } -> begin
      (match t.active with
      | Some a when a.a_epoch = epoch ->
          a.a_waiting <- a.a_waiting - 1;
          if dirty then a.a_all_clean <- false;
          if a.a_waiting = 0 then begin
            if a.a_all_clean then a.a_clean_streak <- a.a_clean_streak + 1
            else a.a_clean_streak <- 0;
            if a.a_clean_streak >= 2 then begin
              a.a_waiting <- Array.length t.states;
              broadcast t ~src:a.a_coordinator (fun _ ->
                  G_sweep { epoch; coordinator = a.a_coordinator })
            end
            else
              (* Give in-flight marks time to land before re-probing. *)
              Engine.schedule t.eng ~delay:settle_delay (fun () ->
                  match t.active with
                  | Some a' when a'.a_epoch = epoch -> begin_round t a'
                  | _ -> ())
          end
      | _ -> ());
      true
    end
  | G_sweep { epoch; coordinator } ->
      let heap = st.gs_site.Site.heap in
      let freed = Heap.sweep heap ~keep:(Oid.Tbl.mem st.gs_marked) in
      Metrics.add (Engine.metrics t.eng) "global.objects_freed" freed;
      ignore epoch;
      Engine.send t.eng ~src:site_id ~dst:coordinator
        (Protocol.Ext (G_sweep_done { epoch; freed }));
      true
  | G_sweep_done { epoch; freed } -> begin
      (match t.active with
      | Some a when a.a_epoch = epoch ->
          a.a_sweep_freed <- a.a_sweep_freed + freed;
          a.a_waiting <- a.a_waiting - 1;
          if a.a_waiting = 0 then begin
            t.active <- None;
            a.a_on_done ~freed:a.a_sweep_freed ~rounds:a.a_round
          end
      | _ -> ());
      true
    end
  | _ -> false

let install eng =
  Local_gc.install eng;
  let t =
    {
      eng;
      states =
        Array.map
          (fun s ->
            {
              gs_site = s;
              gs_epoch = -1;
              gs_marked = Oid.Tbl.create 256;
              gs_dirty = false;
            })
          (Engine.sites eng);
      active = None;
    }
  in
  Array.iter
    (fun st ->
      st.gs_site.Site.hooks.Site.h_ext <-
        (fun ~src ext ->
          ignore (handle t st.gs_site.Site.id ~src ext)))
    t.states;
  t

let epoch_counter = ref 0

let collect t ?(coordinator = Site_id.of_int 0) ~on_done () =
  if t.active <> None then invalid_arg "Global_trace.collect: already running";
  incr epoch_counter;
  let a =
    {
      a_epoch = !epoch_counter;
      a_coordinator = coordinator;
      a_round = 0;
      a_waiting = 0;
      a_all_clean = true;
      a_clean_streak = 0;
      a_sweep_freed = 0;
      a_on_done = on_done;
    }
  in
  t.active <- Some a;
  Metrics.incr (Engine.metrics t.eng) "global.collections";
  begin_round t a
