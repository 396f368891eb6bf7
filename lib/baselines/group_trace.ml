open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts
open Dgc_core

type gid = { g_site : Site_id.t; g_seq : int }

let gid_equal a b = Site_id.equal a.g_site b.g_site && a.g_seq = b.g_seq


type Protocol.ext +=
  | Gr_probe of { gid : gid; initiator : Site_id.t }
      (** membership probe: are you free to join, and where do your
          suspected outrefs lead? *)
  | Gr_probe_reply of {
      gid : gid;
      from : Site_id.t;
      busy : bool;
      targets : Site_id.t list;
    }
  | Gr_mark_start of { gid : gid; initiator : Site_id.t; members : Site_id.t list }
  | Gr_mark of { gid : gid; refs : Oid.t list }
  | Gr_round of { gid : gid; initiator : Site_id.t }
  | Gr_round_done of { gid : gid; dirty : bool }
  | Gr_sweep of { gid : gid; initiator : Site_id.t }
  | Gr_sweep_done of { gid : gid; freed : int }
  | Gr_release of { gid : gid }

let () =
  Protocol.register_ext_kind (function
    | Gr_probe _ | Gr_probe_reply _ -> Some "gr_probe"
    | Gr_mark_start _ | Gr_mark _ | Gr_round _ | Gr_round_done _ ->
        Some "gr_mark"
    | Gr_sweep _ | Gr_sweep_done _ | Gr_release _ -> Some "gr_sweep"
    | _ -> None)

type site_state = {
  gs_site : Site.t;
  mutable gs_member_of : gid option;
  gs_marked : unit Oid.Tbl.t;
  mutable gs_dirty : bool;
  mutable gs_members : Site_id.Set.t;  (** membership of the active group *)
}

type formation = {
  f_gid : gid;
  mutable f_members : Site_id.Set.t;
  mutable f_frontier : Site_id.t list;  (** probes not yet sent *)
  mutable f_waiting : int;  (** probe replies outstanding *)
  mutable f_aborted : bool;
}

type marking = {
  m_gid : gid;
  m_members : Site_id.t list;
  mutable m_round : int;
  mutable m_waiting : int;
  mutable m_all_clean : bool;
  mutable m_clean_streak : int;
  mutable m_freed : int;
}

type t = {
  eng : Engine.t;
  col : Collector.t;
  max_group : int;
  states : site_state array;
  mutable next_seq : int;
  formations : (gid, formation) Hashtbl.t;
  markings : (gid, marking) Hashtbl.t;
  mutable groups_formed : int;
  mutable groups_aborted : int;
  mutable last_group_size : int;
}

let collector t = t.col
let groups_formed t = t.groups_formed
let groups_aborted t = t.groups_aborted
let last_group_size t = t.last_group_size
let state t id = t.states.(Site_id.to_int id)
let settle_delay = Sim_time.of_seconds 1.

(* Where do this site's suspected outrefs lead? Unsorted iteration is
   fine: the dedup sorts the site ids anyway. *)
let suspect_targets st =
  let acc = ref [] in
  Tables.iter_outrefs st.gs_site.Site.tables (fun o ->
      if not (Ioref.outref_clean o) then
        acc := Oid.site o.Ioref.or_target :: !acc);
  Util.list_dedup ~compare:Site_id.compare !acc

(* ---- marking within the group ---------------------------------------- *)

let mark_from t st refs =
  let outgoing = Hashtbl.create 4 in
  let remote r =
    (* Only marks into the group matter. *)
    if Site_id.Set.mem (Oid.site r) st.gs_members then begin
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
    end
  in
  if Heap.mark st.gs_site.Site.heap ~marked:st.gs_marked ~remote refs > 0
  then st.gs_dirty <- true;
  Hashtbl.iter
    (fun dst refs ->
      match st.gs_member_of with
      | Some gid ->
          st.gs_dirty <- true;
          Engine.send t.eng ~src:st.gs_site.Site.id ~dst
            (Protocol.Ext (Gr_mark { gid; refs = Oid.Set.elements !refs }))
      | None -> ())
    outgoing

(* Group-local roots: everything presumed live from the group's point
   of view — local roots, clean inrefs, and inrefs with any source
   outside the group. *)
let group_roots t st =
  let delta = (Engine.config t.eng).Config.delta in
  (* Unsorted: these roots seed a mark closure, so order is not
     observable. *)
  let inref_roots = ref [] in
  Tables.iter_inrefs st.gs_site.Site.tables (fun ir ->
      if
        (not ir.Ioref.ir_flagged)
        && (Ioref.inref_clean ~delta ir
           || List.exists
                (fun src -> not (Site_id.Set.mem src st.gs_members))
                (Ioref.source_sites ir))
      then inref_roots := ir.Ioref.ir_target :: !inref_roots);
  let inref_roots = !inref_roots in
  Heap.persistent_roots st.gs_site.Site.heap
  @ Engine.app_roots t.eng st.gs_site.Site.id
  @ inref_roots

let broadcast_members t ~src members make =
  List.iter
    (fun m -> Engine.send t.eng ~src ~dst:m (Protocol.Ext (make m)))
    members

let begin_mark_round t m =
  m.m_round <- m.m_round + 1;
  m.m_waiting <- List.length m.m_members;
  m.m_all_clean <- true;
  broadcast_members t ~src:m.m_gid.g_site m.m_members (fun _ ->
      Gr_round { gid = m.m_gid; initiator = m.m_gid.g_site })

let start_marking t gid members =
  t.groups_formed <- t.groups_formed + 1;
  t.last_group_size <- List.length members;
  Metrics.incr (Engine.metrics t.eng) "group.formed";
  let m =
    {
      m_gid = gid;
      m_members = members;
      m_round = 0;
      m_waiting = 0;
      m_all_clean = true;
      m_clean_streak = 0;
      m_freed = 0;
    }
  in
  Hashtbl.add t.markings gid m;
  broadcast_members t ~src:gid.g_site members (fun _ ->
      Gr_mark_start { gid; initiator = gid.g_site; members });
  Engine.schedule t.eng ~delay:settle_delay (fun () -> begin_mark_round t m)

(* ---- formation -------------------------------------------------------- *)

let rec pump_formation t f =
  if not f.f_aborted then begin
    match f.f_frontier with
    | [] ->
        if f.f_waiting = 0 then begin
          Hashtbl.remove t.formations f.f_gid;
          start_marking t f.f_gid (Site_id.Set.elements f.f_members)
        end
    | s :: rest ->
        f.f_frontier <- rest;
        if Site_id.Set.mem s f.f_members then pump_formation t f
        else if Site_id.Set.cardinal f.f_members >= t.max_group then begin
          (* Cap reached: the group cannot cover the structure. *)
          Metrics.incr (Engine.metrics t.eng) "group.capped";
          f.f_frontier <- [];
          pump_formation t f
        end
        else begin
          f.f_waiting <- f.f_waiting + 1;
          Engine.send t.eng ~src:f.f_gid.g_site ~dst:s
            (Protocol.Ext (Gr_probe { gid = f.f_gid; initiator = f.f_gid.g_site }))
        end
  end

let abort_formation t f =
  if not f.f_aborted then begin
    f.f_aborted <- true;
    Hashtbl.remove t.formations f.f_gid;
    t.groups_aborted <- t.groups_aborted + 1;
    Metrics.incr (Engine.metrics t.eng) "group.aborted";
    (* Release the sites that did join. *)
    Site_id.Set.iter
      (fun m ->
        Engine.send t.eng ~src:f.f_gid.g_site ~dst:m
          (Protocol.Ext (Gr_release { gid = f.f_gid })))
      f.f_members
  end

let maybe_initiate t site_id =
  let st = state t site_id in
  if st.gs_member_of = None then begin
    begin
      let conf = Engine.config t.eng in
      let seed =
        Tables.outrefs st.gs_site.Site.tables
        |> List.find_opt (fun o ->
               (not (Ioref.outref_clean o))
               && o.Ioref.or_dist > conf.Config.threshold2)
      in
      match seed with
      | None -> ()
      | Some seed ->
          t.next_seq <- t.next_seq + 1;
          let gid = { g_site = site_id; g_seq = t.next_seq } in
          st.gs_member_of <- Some gid;
          Oid.Tbl.reset st.gs_marked;
          st.gs_dirty <- false;
          let f =
            {
              f_gid = gid;
              f_members = Site_id.Set.singleton site_id;
              f_frontier =
                Oid.site seed.Ioref.or_target :: suspect_targets st;
              f_waiting = 0;
              f_aborted = false;
            }
          in
          Hashtbl.add t.formations gid f;
          pump_formation t f
    end
  end

(* ---- message handling ------------------------------------------------- *)

let handle t site_id ~src:_ ext =
  let st = state t site_id in
  match ext with
  | Gr_probe { gid; initiator } ->
      let busy =
        match st.gs_member_of with
        | Some g -> not (gid_equal g gid)
        | None -> false
      in
      let targets = if busy then [] else suspect_targets st in
      if not busy then begin
        st.gs_member_of <- Some gid;
        Oid.Tbl.reset st.gs_marked;
        st.gs_dirty <- false
      end;
      Engine.send t.eng ~src:site_id ~dst:initiator
        (Protocol.Ext (Gr_probe_reply { gid; from = site_id; busy; targets }));
      true
  | Gr_probe_reply { gid; from; busy; targets } -> begin
      (match Hashtbl.find_opt t.formations gid with
      | Some f ->
          f.f_waiting <- f.f_waiting - 1;
          if busy then abort_formation t f
          else begin
            f.f_members <- Site_id.Set.add from f.f_members;
            f.f_frontier <- f.f_frontier @ targets;
            pump_formation t f
          end
      | _ -> ());
      true
    end
  | Gr_release { gid } ->
      (match st.gs_member_of with
      | Some g when gid_equal g gid -> st.gs_member_of <- None
      | _ -> ());
      true
  | Gr_mark_start { gid; initiator = _; members } ->
      (match st.gs_member_of with
      | Some g when gid_equal g gid ->
          st.gs_members <- Site_id.set_of_list members;
          mark_from t st (group_roots t st)
      | _ -> ());
      true
  | Gr_mark { gid; refs } ->
      (match st.gs_member_of with
      | Some g when gid_equal g gid -> mark_from t st refs
      | _ -> ());
      true
  | Gr_round { gid; initiator } ->
      (match st.gs_member_of with
      | Some g when gid_equal g gid ->
          let dirty = st.gs_dirty in
          st.gs_dirty <- false;
          Engine.send t.eng ~src:site_id ~dst:initiator
            (Protocol.Ext (Gr_round_done { gid; dirty }))
      | _ -> ());
      true
  | Gr_round_done { gid; dirty } -> begin
      (match Hashtbl.find_opt t.markings gid with
      | Some m ->
          m.m_waiting <- m.m_waiting - 1;
          if dirty then m.m_all_clean <- false;
          if m.m_waiting = 0 then begin
            if m.m_all_clean then m.m_clean_streak <- m.m_clean_streak + 1
            else m.m_clean_streak <- 0;
            if m.m_clean_streak >= 2 then
              broadcast_members t ~src:gid.g_site m.m_members (fun _ ->
                  Gr_sweep { gid; initiator = gid.g_site })
            else
              Engine.schedule t.eng ~delay:settle_delay (fun () ->
                  match Hashtbl.find_opt t.markings gid with
                  | Some m' -> begin_mark_round t m'
                  | None -> ())
          end
      | _ -> ());
      true
    end
  | Gr_sweep { gid; initiator } ->
      (match st.gs_member_of with
      | Some g when gid_equal g gid ->
          let heap = st.gs_site.Site.heap in
          let freed = Heap.sweep heap ~keep:(Oid.Tbl.mem st.gs_marked) in
          Metrics.add (Engine.metrics t.eng) "group.objects_freed" freed;
          st.gs_member_of <- None;
          Engine.send t.eng ~src:site_id ~dst:initiator
            (Protocol.Ext (Gr_sweep_done { gid; freed }))
      | _ -> ());
      true
  | Gr_sweep_done { gid; freed } -> begin
      (match Hashtbl.find_opt t.markings gid with
      | Some m ->
          m.m_freed <- m.m_freed + freed;
          m.m_waiting <- m.m_waiting + 1;
          if m.m_waiting >= List.length m.m_members then
            Hashtbl.remove t.markings gid
      | None -> ());
      true
    end
  | _ -> false

let try_initiate t site_id = maybe_initiate t site_id

let install eng ~max_group =
  let col = Collector.install eng in
  Collector.set_auto_back_traces col false;
  let t =
    {
      eng;
      col;
      max_group;
      states =
        Array.map
          (fun s ->
            {
              gs_site = s;
              gs_member_of = None;
              gs_marked = Oid.Tbl.create 128;
              gs_dirty = false;
              gs_members = Site_id.Set.empty;
            })
          (Engine.sites eng);
      next_seq = 0;
      formations = Hashtbl.create 4;
      markings = Hashtbl.create 4;
      groups_formed = 0;
      groups_aborted = 0;
      last_group_size = 0;
    }
  in
  (* Chain our messages in front of the collector's handler. *)
  Array.iter
    (fun st ->
      let s = st.gs_site in
      let prev = s.Site.hooks.Site.h_ext in
      s.Site.hooks.Site.h_ext <-
        (fun ~src ext ->
          if not (handle t s.Site.id ~src ext) then prev ~src ext))
    t.states;
  Collector.set_after_trace col (fun site_id -> maybe_initiate t site_id);
  t
