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
  | Gr_mark of {
      gid : gid;
      members : Site_id.t list;
      seq : int;  (** numbers the sender's marks for the group *)
      refs : Oid.t list;
    }
  | Gr_round of { gid : gid; round : int; members : Site_id.t list }
  | Gr_round_done of { gid : gid; round : int; sent : int; received : int }
  | Gr_sweep of { gid : gid; initiator : Site_id.t }
  | Gr_sweep_done of { gid : gid; freed : int }
  | Gr_release of { gid : gid }

let () =
  Protocol.register_ext_kind (function
    | Gr_probe _ | Gr_probe_reply _ -> Some "gr_probe"
    | Gr_mark _ | Gr_round _ | Gr_round_done _ -> Some "gr_mark"
    | Gr_sweep _ | Gr_sweep_done _ | Gr_release _ -> Some "gr_sweep"
    | _ -> None)

type site_state = {
  gs_site : Site.t;
  mutable gs_member_of : gid option;
  mutable gs_entered : bool;
      (** marking of [gs_member_of] has begun here: members known, group
          roots marked *)
  gs_marked : unit Oid.Tbl.t;
  mutable gs_members : Site_id.Set.t;  (** membership of the active group *)
  mutable gs_sent : int;  (** [Gr_mark]s sent for [gs_member_of] *)
  gs_received : (Site_id.t * int, unit) Hashtbl.t;
      (** (sender, seq) of each [Gr_mark] received for it *)
}

type formation = {
  f_gid : gid;
  mutable f_members : Site_id.Set.t;
  mutable f_frontier : Site_id.t list;  (** probes not yet sent *)
  mutable f_waiting : Site_id.t list;
      (** one entry per probe whose reply is outstanding; a reply from a
          site not in it is a duplicate *)
  mutable f_aborted : bool;
}

type marking = {
  m_gid : gid;
  m_members : Site_id.t list;
  mutable m_round : int;
  m_marking : Four_counter.t;
  mutable m_swept : Site_id.Set.t;  (** members that reported their sweep *)
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
  Heap.mark st.gs_site.Site.heap ~marked:st.gs_marked ~remote refs;
  Hashtbl.iter
    (fun dst refs ->
      match st.gs_member_of with
      | Some gid ->
          st.gs_sent <- st.gs_sent + 1;
          Engine.send t.eng ~src:st.gs_site.Site.id ~dst
            (Protocol.Ext
               (Gr_mark
                  {
                    gid;
                    members = Site_id.Set.elements st.gs_members;
                    seq = st.gs_sent;
                    refs = Oid.Set.elements !refs;
                  }))
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

(* A site joins a group when it accepts the probe (or initiates). *)
let join st gid =
  st.gs_member_of <- Some gid;
  st.gs_entered <- false;
  Oid.Tbl.reset st.gs_marked;
  st.gs_sent <- 0;
  Hashtbl.reset st.gs_received

(* The first round or mark of its group that reaches a member enters
   the marking: it learns the members and marks from the group roots,
   once. A mark may overtake the receiver's first round, so both carry
   the member list. Returns whether the message is for the site's
   group. *)
let enter t st gid members =
  match st.gs_member_of with
  | Some g when gid_equal g gid ->
      if not st.gs_entered then begin
        st.gs_entered <- true;
        st.gs_members <- Site_id.set_of_list members;
        mark_from t st (group_roots t st)
      end;
      true
  | _ -> false

let broadcast_members t ~src members make =
  List.iter
    (fun m -> Engine.send t.eng ~src ~dst:m (Protocol.Ext (make m)))
    members

let begin_mark_round t m =
  m.m_round <- m.m_round + 1;
  Four_counter.start_round m.m_marking ~participants:(List.length m.m_members);
  broadcast_members t ~src:m.m_gid.g_site m.m_members (fun _ ->
      Gr_round { gid = m.m_gid; round = m.m_round; members = m.m_members })

let mark_round_done t m =
  if Four_counter.over m.m_marking then
    broadcast_members t ~src:m.m_gid.g_site m.m_members (fun _ ->
        Gr_sweep { gid = m.m_gid; initiator = m.m_gid.g_site })
  else
    Engine.schedule t.eng ~delay:settle_delay (fun () ->
        if Hashtbl.mem t.markings m.m_gid then begin_mark_round t m)

let start_marking t gid members =
  t.groups_formed <- t.groups_formed + 1;
  t.last_group_size <- List.length members;
  Metrics.incr (Engine.metrics t.eng) "group.formed";
  let m =
    {
      m_gid = gid;
      m_members = members;
      m_round = 0;
      m_marking = Four_counter.create ~sites:(Array.length t.states);
      m_swept = Site_id.Set.empty;
      m_freed = 0;
    }
  in
  Hashtbl.add t.markings gid m;
  begin_mark_round t m

(* ---- formation -------------------------------------------------------- *)

let rec remove_one x = function
  | [] -> []
  | y :: rest -> if Site_id.equal x y then rest else y :: remove_one x rest

let rec pump_formation t f =
  if not f.f_aborted then begin
    match f.f_frontier with
    | [] ->
        if f.f_waiting = [] then begin
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
          f.f_waiting <- s :: f.f_waiting;
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
          join st gid;
          let f =
            {
              f_gid = gid;
              f_members = Site_id.Set.singleton site_id;
              f_frontier =
                Oid.site seed.Ioref.or_target :: suspect_targets st;
              f_waiting = [];
              f_aborted = false;
            }
          in
          Hashtbl.add t.formations gid f;
          pump_formation t f
    end
  end

(* ---- message handling ------------------------------------------------- *)

let handle t site_id ~src ext =
  let st = state t site_id in
  match ext with
  | Gr_probe { gid; initiator } ->
      let busy =
        match st.gs_member_of with
        | Some g -> not (gid_equal g gid)
        | None -> false
      in
      let targets = if busy then [] else suspect_targets st in
      if (not busy) && st.gs_member_of = None then join st gid;
      Engine.send t.eng ~src:site_id ~dst:initiator
        (Protocol.Ext (Gr_probe_reply { gid; from = site_id; busy; targets }));
      true
  | Gr_probe_reply { gid; from; busy; targets } -> begin
      (match Hashtbl.find_opt t.formations gid with
      | Some f when List.exists (Site_id.equal from) f.f_waiting ->
          f.f_waiting <- remove_one from f.f_waiting;
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
  | Gr_mark { gid; members; seq; refs } ->
      if enter t st gid members && not (Hashtbl.mem st.gs_received (src, seq))
      then begin
        Hashtbl.add st.gs_received (src, seq) ();
        mark_from t st refs
      end;
      true
  | Gr_round { gid; round; members } ->
      if enter t st gid members then
        Engine.send t.eng ~src:site_id ~dst:gid.g_site
          (Protocol.Ext
             (Gr_round_done
                {
                  gid;
                  round;
                  sent = st.gs_sent;
                  received = Hashtbl.length st.gs_received;
                }));
      true
  | Gr_round_done { gid; round; sent; received } -> begin
      (match Hashtbl.find_opt t.markings gid with
      | Some m when m.m_round = round ->
          if Four_counter.reply m.m_marking src ~sent ~received then
            mark_round_done t m
      | _ -> ());
      true
    end
  | Gr_sweep { gid; initiator } ->
      (match st.gs_member_of with
      | Some g when gid_equal g gid && st.gs_entered ->
          let freed =
            Sweep.sweep t.eng st.gs_site ~keep:(Oid.Tbl.mem st.gs_marked)
          in
          Metrics.add (Engine.metrics t.eng) "group.objects_freed" freed;
          st.gs_member_of <- None;
          Engine.send t.eng ~src:site_id ~dst:initiator
            (Protocol.Ext (Gr_sweep_done { gid; freed }))
      | _ -> ());
      true
  | Gr_sweep_done { gid; freed } -> begin
      (match Hashtbl.find_opt t.markings gid with
      | Some m when not (Site_id.Set.mem src m.m_swept) ->
          m.m_freed <- m.m_freed + freed;
          m.m_swept <- Site_id.Set.add src m.m_swept;
          if Site_id.Set.cardinal m.m_swept >= List.length m.m_members then
            Hashtbl.remove t.markings gid
      | _ -> ());
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
              gs_entered = false;
              gs_marked = Oid.Tbl.create 128;
              gs_members = Site_id.Set.empty;
              gs_sent = 0;
              gs_received = Hashtbl.create 8;
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
