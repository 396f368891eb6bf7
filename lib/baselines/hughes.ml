open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts
open Dgc_core

type Protocol.ext +=
  | H_ts_update of (Oid.t * float) list
      (** the sender's outref timestamps for the target's inrefs *)
  | H_query of { round : int; coordinator : Site_id.t }
  | H_reply of { round : int; last_trace : float }
  | H_threshold of float

let () =
  Protocol.register_ext_kind (function
    | H_ts_update _ -> Some "h_ts"
    | H_query _ | H_reply _ | H_threshold _ -> Some "h_round"
    | _ -> None)

type site_state = {
  hs_site : Site.t;
  mutable hs_last_trace : float;
  hs_ts : (Ioref.inref * float) Oid.Tbl.t;
      (** per inref target, the record seen and the newest timestamp
          heard for it *)
}

type round = {
  r_id : int;
  mutable r_replied : Site_id.Set.t;  (** a repeated reply counts once *)
  mutable r_min : float;
  r_coordinator : Site_id.t;
}

type t = {
  eng : Engine.t;
  slack : Sim_time.t;
  states : site_state array;
  mutable round : round option;
  mutable threshold : float;
  mutable rounds_done : int;
  mutable next_round : int;
}

let threshold t = t.threshold
let rounds_completed t = t.rounds_done
let state t id = t.states.(Site_id.to_int id)

let slack cfg ~depth =
  let latency =
    match cfg.Config.latency with
    | Latency.Fixed d -> d
    | Latency.Uniform (_, hi) -> hi
    | Latency.Exponential _ -> invalid_arg "Hughes: unbounded latency"
  in
  let hop =
    Sim_time.to_seconds cfg.Config.trace_interval
    +. Sim_time.to_seconds cfg.Config.trace_jitter
    +. Sim_time.to_seconds latency
  in
  Sim_time.of_seconds (float_of_int (depth + 1) *. hop)

(* An inref's timestamp. A record not seen before (a new inref, or one
   re-created after a removal) takes the time it is first seen, which
   is never earlier than its creation. *)
let inref_ts t st ir =
  let r = ir.Ioref.ir_target in
  match Oid.Tbl.find_opt st.hs_ts r with
  | Some (seen, ts) when seen == ir -> ts
  | _ ->
      let now = Sim_time.to_seconds (Engine.now t.eng) in
      Oid.Tbl.replace st.hs_ts r (ir, now);
      now

(* Timestamp-propagating local trace: like the plain local trace, but
   roots are processed in decreasing timestamp order and the first
   reach of an object or outref assigns the (maximal) timestamp. *)
let hughes_trace t st =
  let site = st.hs_site in
  let heap = site.Site.heap in
  let tables = site.Site.tables in
  let now = Sim_time.to_seconds (Engine.now t.eng) in
  st.hs_last_trace <- now;
  Metrics.incr (Engine.metrics t.eng) "gc.local_traces";
  let inref_groups =
    List.filter_map
      (fun ir ->
        if ir.Ioref.ir_flagged then None
        else Some (inref_ts t st ir, [ ir.Ioref.ir_target ]))
      (Tables.inrefs tables)
  in
  let root_group =
    ( now,
      Heap.persistent_roots heap @ Engine.app_roots t.eng site.Site.id )
  in
  let groups =
    root_group :: inref_groups
    |> List.stable_sort (fun (a, _) (b, _) -> Float.compare b a)
  in
  let marked : unit Oid.Tbl.t = Oid.Tbl.create 256 in
  let out_ts : float Oid.Tbl.t = Oid.Tbl.create 32 in
  List.iter
    (fun (ts, roots) ->
      let remote r =
        if not (Oid.Tbl.mem out_ts r) then Oid.Tbl.add out_ts r ts
      in
      Heap.mark heap ~marked ~remote roots)
    groups;
  let freed = Sweep.sweep t.eng site ~keep:(Oid.Tbl.mem marked) in
  Metrics.add (Engine.metrics t.eng) "gc.objects_freed" freed;
  (* Trim outrefs and ship every traced outref's timestamp, so one that
     is lost is sent again by the next trace. *)
  let removals = ref [] in
  let ts_changes = Hashtbl.create 8 in
  let bucket dst =
    match Hashtbl.find_opt ts_changes dst with
    | Some b -> b
    | None ->
        let b = ref [] in
        Hashtbl.add ts_changes dst b;
        b
  in
  List.iter
    (fun o ->
      let r = o.Ioref.or_target in
      match Oid.Tbl.find_opt out_ts r with
      | Some ts ->
          o.Ioref.or_fresh <- false;
          let b = bucket (Oid.site r) in
          b := (r, ts) :: !b
      | None ->
          if o.Ioref.or_pins > 0 then ()
          else if o.Ioref.or_fresh then o.Ioref.or_fresh <- false
          else begin
            Tables.remove_outref tables r;
            removals := (r, o.Ioref.or_inc) :: !removals
          end)
    (Tables.outrefs tables);
  Engine.send_updates t.eng ~src:site.Site.id ~removals:(List.rev !removals)
    ~dists:[];
  Hashtbl.iter
    (fun dst b ->
      Engine.send t.eng ~src:site.Site.id ~dst
        (Protocol.Ext (H_ts_update !b)))
    ts_changes;
  Tables.iter_inrefs tables (fun ir -> ir.Ioref.ir_fresh <- false);
  Oid.Tbl.filter_map_inplace
    (fun r ((seen, _) as e) ->
      match Tables.find_inref tables r with
      | Some ir when ir == seen -> Some e
      | _ -> None)
    st.hs_ts;
  site.Site.trace_epoch <- site.Site.trace_epoch + 1

let apply_threshold t st v =
  let tables = st.hs_site.Site.tables in
  Tables.iter_inrefs tables (fun ir ->
      if (not ir.Ioref.ir_fresh) && inref_ts t st ir < v then begin
        Tables.flag_inref tables ir;
        Metrics.incr (Engine.metrics t.eng) "hughes.inrefs_flagged"
      end)

let handle t site_id ~src ext =
  let st = state t site_id in
  match ext with
  | H_ts_update changes ->
      List.iter
        (fun (r, ts) ->
          match Tables.find_inref st.hs_site.Site.tables r with
          | Some ir ->
              Oid.Tbl.replace st.hs_ts r (ir, Float.max (inref_ts t st ir) ts)
          | None -> ())
        changes;
      true
  | H_query { round; coordinator } ->
      Engine.send t.eng ~src:site_id ~dst:coordinator
        (Protocol.Ext (H_reply { round; last_trace = st.hs_last_trace }));
      true
  | H_reply { round; last_trace } -> begin
      (match t.round with
      | Some r when r.r_id = round && not (Site_id.Set.mem src r.r_replied) ->
          r.r_replied <- Site_id.Set.add src r.r_replied;
          r.r_min <- Float.min r.r_min last_trace;
          if Site_id.Set.cardinal r.r_replied = Array.length t.states then begin
            t.round <- None;
            t.rounds_done <- t.rounds_done + 1;
            let v = r.r_min -. Sim_time.to_seconds t.slack in
            if v > t.threshold then t.threshold <- v;
            Array.iter
              (fun st' ->
                Engine.send t.eng ~src:r.r_coordinator
                  ~dst:st'.hs_site.Site.id
                  (Protocol.Ext (H_threshold t.threshold)))
              t.states
          end
      | _ -> ());
      true
    end
  | H_threshold v ->
      apply_threshold t st v;
      true
  | _ -> false

let install eng ~depth =
  let cfg = Engine.config eng in
  if cfg.Config.ext_drop > 0. then
    invalid_arg "Hughes.install: timestamps need loss-free delivery";
  let t =
    {
      eng;
      slack = slack cfg ~depth;
      states =
        Array.map
          (fun s ->
            { hs_site = s; hs_last_trace = 0.; hs_ts = Oid.Tbl.create 32 })
          (Engine.sites eng);
      round = None;
      threshold = 0.;
      rounds_done = 0;
      next_round = 0;
    }
  in
  Array.iter
    (fun st ->
      let s = st.hs_site in
      s.Site.hooks.Site.h_run_local_trace <- (fun () -> hughes_trace t st);
      s.Site.hooks.Site.h_ext <-
        (fun ~src ext -> ignore (handle t s.Site.id ~src ext)))
    t.states;
  t

let run_threshold_round t ?(coordinator = Site_id.of_int 0) () =
  begin
    (* A previous round that never completed (e.g. a crashed site not
       replying) is abandoned: replies carry the round id, so stale
       ones are ignored. *)
    t.next_round <- t.next_round + 1;
    let r =
      {
        r_id = t.next_round;
        r_replied = Site_id.Set.empty;
        r_min = infinity;
        r_coordinator = coordinator;
      }
    in
    t.round <- Some r;
    Metrics.incr (Engine.metrics t.eng) "hughes.threshold_rounds";
    Array.iter
      (fun st ->
        Engine.send t.eng ~src:coordinator ~dst:st.hs_site.Site.id
          (Protocol.Ext (H_query { round = r.r_id; coordinator })))
      t.states
  end
