open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts
open Dgc_core

type Protocol.ext +=
  | G_round of { epoch : int; round : int; coordinator : Site_id.t }
  | G_round_done of { epoch : int; round : int; sent : int; received : int }
  | G_mark of { epoch : int; seq : int; refs : Oid.t list }
      (** [seq] numbers the sender's marks in the epoch *)
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
  mutable gs_sent : int;  (** [G_mark]s sent in this epoch *)
  gs_received : (Site_id.t * int, unit) Hashtbl.t;
      (** (sender, seq) of each [G_mark] received in this epoch *)
}

type active = {
  a_epoch : int;
  a_coordinator : Site_id.t;
  mutable a_round : int;
  a_marking : Four_counter.t;
  mutable a_waiting : int;  (** sweep replies outstanding *)
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

(* Mark locally from the given references and send the marks that
   escaped to other sites, one [G_mark] per destination. *)
let mark_from t st refs =
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
  Heap.mark st.gs_site.Site.heap ~marked:st.gs_marked ~remote refs;
  Hashtbl.iter
    (fun dst refs ->
      st.gs_sent <- st.gs_sent + 1;
      Engine.send t.eng ~src:st.gs_site.Site.id ~dst
        (Protocol.Ext
           (G_mark
              {
                epoch = st.gs_epoch;
                seq = st.gs_sent;
                refs = Oid.Set.elements !refs;
              })))
    outgoing

(* The first message of a newer epoch, a round or a mark, starts it at
   the site: the old marks go and the site marks from its roots. A
   mark may overtake the receiver's first round, so either can come
   first. Returns whether the message belongs to the current epoch. *)
let enter t st epoch =
  if epoch > st.gs_epoch then begin
    st.gs_epoch <- epoch;
    Oid.Tbl.reset st.gs_marked;
    st.gs_sent <- 0;
    Hashtbl.reset st.gs_received;
    mark_from t st
      (Heap.persistent_roots st.gs_site.Site.heap
      @ Engine.app_roots t.eng st.gs_site.Site.id)
  end;
  epoch = st.gs_epoch

let broadcast t ~src make =
  Array.iter
    (fun st ->
      Engine.send t.eng ~src ~dst:st.gs_site.Site.id
        (Protocol.Ext (make st.gs_site.Site.id)))
    t.states

let begin_round t a =
  a.a_round <- a.a_round + 1;
  Four_counter.start_round a.a_marking ~participants:(Array.length t.states);
  broadcast t ~src:a.a_coordinator (fun _ ->
      G_round
        { epoch = a.a_epoch; round = a.a_round; coordinator = a.a_coordinator })

let settle_delay = Sim_time.of_seconds 1.

let round_done t a =
  if Four_counter.over a.a_marking then begin
    a.a_waiting <- Array.length t.states;
    broadcast t ~src:a.a_coordinator (fun _ ->
        G_sweep { epoch = a.a_epoch; coordinator = a.a_coordinator })
  end
  else
    (* Give in-flight marks time to land before re-probing. *)
    Engine.schedule t.eng ~delay:settle_delay (fun () ->
        match t.active with
        | Some a' when a' == a -> begin_round t a
        | _ -> ())

let handle t site_id ~src ext =
  let st = state t site_id in
  match ext with
  | G_round { epoch; round; coordinator } ->
      if enter t st epoch then
        Engine.send t.eng ~src:site_id ~dst:coordinator
          (Protocol.Ext
             (G_round_done
                {
                  epoch;
                  round;
                  sent = st.gs_sent;
                  received = Hashtbl.length st.gs_received;
                }));
      true
  | G_mark { epoch; seq; refs } ->
      if enter t st epoch && not (Hashtbl.mem st.gs_received (src, seq))
      then begin
        Hashtbl.add st.gs_received (src, seq) ();
        mark_from t st refs
      end;
      true
  | G_round_done { epoch; round; sent; received } -> begin
      (match t.active with
      | Some a when a.a_epoch = epoch && a.a_round = round ->
          if Four_counter.reply a.a_marking src ~sent ~received then
            round_done t a
      | _ -> ());
      true
    end
  | G_sweep { epoch; coordinator } ->
      let freed =
        if epoch = st.gs_epoch then
          Sweep.sweep t.eng st.gs_site ~keep:(Oid.Tbl.mem st.gs_marked)
        else 0
      in
      Metrics.add (Engine.metrics t.eng) "global.objects_freed" freed;
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
              gs_sent = 0;
              gs_received = Hashtbl.create 8;
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
      a_marking = Four_counter.create ~sites:(Array.length t.states);
      a_waiting = 0;
      a_sweep_freed = 0;
      a_on_done = on_done;
    }
  in
  t.active <- Some a;
  Metrics.incr (Engine.metrics t.eng) "global.collections";
  begin_round t a
