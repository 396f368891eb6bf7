open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts
module Tel = Dgc_telemetry

(* What a trace will install: an outcome kept from an earlier trace
   with the same input stamp, or an input still to compute ([keep]:
   retain its outcome for the next trace). *)
type plan = Reuse of Local_trace.outcome | Compute of Local_trace.input * bool

(* [w_arrived]: the references the transfer barrier recorded while
   the window was open, newest first. *)
type window = { w_plan : plan; mutable w_arrived : Oid.t list }

(* [ctl_memo] is the site's root-closure memo: per collector, so it
   dies with its engine. [ctl_stamp] is the stamp of the last input
   sampled, and [ctl_kept] that input's outcome, held only once the
   stamp has repeated. *)
type site_ctl = {
  ctl_site : Site.t;
  mutable ctl_window : window option;
  ctl_memo : Local_trace.memo;
  mutable ctl_stamp : Local_trace.stamp option;
  mutable ctl_kept : Local_trace.outcome option;
  mutable ctl_reused : int;
  mutable ctl_computed : int;
  (* the site's metric handles, each registered on first record *)
  ctl_meters : Local_trace.meters;
  ctl_candidates : Metrics.hist Lazy.t;
  ctl_resident : Tel.Series.series Lazy.t;
}

(* The collector-wide metric handles, each registered on first
   record. *)
type meters = {
  m_candidates : Metrics.hist Lazy.t;
  m_candidates_series : Tel.Series.series Lazy.t;
  m_back_bytes : Tel.Series.series Lazy.t;
  m_workspace : Tel.Series.series Lazy.t;
}

type t = {
  eng : Engine.t;
  back : Back_trace.shared;
  ctls : site_ctl array;
  meters : meters;
  mutable auto_back_traces : bool;
  mutable after_trace : Site_id.t -> unit;
  (* §3's tuning suggestion: when abortive (Live) verdicts dominate,
     raise the effective back threshold for newly suspected outrefs. *)
  mutable eff_threshold2 : int;
  mutable recent_live : int;
  mutable recent_garbage : int;
}

let engine t = t.eng
let back t = t.back
let ctl t id = t.ctls.(Site_id.to_int id)
let in_window t id = (ctl t id).ctl_window <> None

let cfg t = Engine.config t.eng
let now_s t = Sim_time.to_seconds (Engine.now t.eng)

(* ---- the transfer barrier (§6.1) ------------------------------------ *)

(* Clean what the arrival of [r] makes suspect (§6.1.2 cases 3 and 4).
   An open window records every arrival: its snapshot predates them,
   so [Local_trace.apply] cleans them again on the new copy. *)
let barrier_ref_arrived t site_id r =
  if (cfg t).Config.enable_transfer_barrier then begin
    let c = ctl t site_id in
    let cleaned = Engine.force_clean t.eng c.ctl_site r in
    let metrics = Engine.metrics t.eng in
    if cleaned.Engine.inref_cleaned then
      Metrics.incr metrics "barrier.inref_cleaned";
    if cleaned.Engine.outrefs_cleaned > 0 then
      Metrics.add metrics "barrier.outref_cleaned"
        cleaned.Engine.outrefs_cleaned;
    match c.ctl_window with
    | Some w -> w.w_arrived <- r :: w.w_arrived
    | None -> ()
  end

(* ---- back-trace triggering (§4.3) ----------------------------------- *)

let trigger_back_traces t site_id =
  let c = ctl t site_id in
  let conf = cfg t in
  (* A scan in table order; only the candidates are sorted, below. *)
  let candidates = ref [] in
  Tables.iter_outrefs c.ctl_site.Site.tables (fun o ->
      if o.Ioref.or_suspected then begin
        (* Initialize the back threshold lazily to Δ2. *)
        if o.Ioref.or_back_threshold >= Ioref.infinity_dist then
          o.Ioref.or_back_threshold <- t.eff_threshold2;
        if
          o.Ioref.or_dist > o.Ioref.or_back_threshold
          && Ioref.outref_clean o = false
          && Trace_id.Set.is_empty o.Ioref.or_visited
        then candidates := o :: !candidates
      end);
  let candidates = !candidates in
  let n_cand = List.length candidates in
  Metrics.observe (Lazy.force t.meters.m_candidates) (float_of_int n_cand);
  Metrics.observe (Lazy.force c.ctl_candidates) (float_of_int n_cand);
  Tel.Series.add_to
    (Lazy.force t.meters.m_candidates_series)
    ~at:(now_s t) n_cand;
  (* Deepest first: they are the most likely to be fully suspected.
     Ties go to the lower target, so which outrefs start traces does
     not depend on table order — determinism is observable here. *)
  let sorted =
    List.sort
      (fun a b ->
        match Int.compare b.Ioref.or_dist a.Ioref.or_dist with
        | 0 -> Oid.compare a.Ioref.or_target b.Ioref.or_target
        | c -> c)
      candidates
  in
  let picked = Util.list_take conf.Config.max_trace_starts sorted in
  List.filter_map
    (fun o -> Back_trace.start t.back site_id o.Ioref.or_target)
    picked

let start_back_trace t site_id r = Back_trace.start t.back site_id r
let set_auto_back_traces t b = t.auto_back_traces <- b
let set_after_trace t f = t.after_trace <- f
let effective_threshold2 t = t.eff_threshold2

(* ---- local traces (§5, §6.2) ----------------------------------------- *)

(* Memory-accounting gauges, sampled once per applied local trace —
   the moment resident bytes actually move. Taxonomy (DESIGN.md
   "Observability"): objects ([Heap.bytes_resident]), ioref tables
   ([Tables.approx_bytes]), back-trace residue
   ([Back_trace.approx_bytes]), and the trace's transient workspace. *)
let sample_memory t site_id outcome =
  let c = ctl t site_id in
  let s = c.ctl_site in
  let at = now_s t in
  let set g n = Tel.Series.set_to (Lazy.force g) ~at (float_of_int n) in
  set c.ctl_resident
    (Heap.bytes_resident s.Site.heap + Tables.approx_bytes s.Site.tables);
  set t.meters.m_back_bytes (Back_trace.approx_bytes t.back);
  set t.meters.m_workspace
    outcome.Local_trace.ot_stats.Local_trace.workspace_bytes

(* Profiled [Local_trace.compute]: a [local_trace] scope with
   per-phase subscopes (clean / suspect / assemble) driven by the
   [?probe] hook, plus the outcome's deterministic work-unit stats —
   object visits, outset algebra, memo hits, workspace bytes —
   attributed to the [local_trace] node. Without a profiler this is
   exactly the bare compute. Both run with the site's memo. *)
let profiled_compute t c input =
  let memo = c.ctl_memo in
  match Engine.profile t.eng with
  | None -> Local_trace.compute ~memo input
  | Some p ->
      let module Prof = Dgc_profile.Profile in
      Prof.enter p "local_trace";
      let open_sub = ref false in
      let close_sub () =
        if !open_sub then begin
          Prof.leave p;
          open_sub := false
        end
      in
      let probe tag =
        close_sub ();
        Prof.enter p tag;
        open_sub := true
      in
      Fun.protect
        ~finally:(fun () ->
          close_sub ();
          Prof.leave p)
        (fun () ->
          let outcome = Local_trace.compute ~probe ~memo input in
          close_sub ();
          let st = outcome.Local_trace.ot_stats in
          Prof.work p "visits"
            (st.Local_trace.clean_visits + st.Local_trace.suspect_visits);
          Prof.work p "outsets" st.Local_trace.distinct_outsets;
          Prof.work p "union_calls" st.Local_trace.union_calls;
          Prof.work p "memo_hits" st.Local_trace.memo_hits;
          Prof.work p "inset_entries" st.Local_trace.inset_entries;
          Prof.work p "workspace_bytes" st.Local_trace.workspace_bytes;
          outcome)

(* Install an outcome (frees, table swap, update sends) and sample the
   memory gauges. [arrived]: the window's recorded arrivals. *)
let install_outcome t site_id ?arrived outcome =
  let c = ctl t site_id in
  Local_trace.apply ?arrived t.eng c.ctl_site c.ctl_meters outcome;
  sample_memory t site_id outcome

(* Everything that happens after a trace's mark phase: install the
   outcome, trigger back traces, notify. *)
let apply_outcome t site_id ?arrived outcome =
  install_outcome t site_id ?arrived outcome;
  if t.auto_back_traces then ignore (trigger_back_traces t site_id);
  t.after_trace site_id

(* Sample the site's trace input, unless its stamp says the input
   equals the last one sampled and that input's outcome is kept. A
   stamp that moved drops the kept outcome at once; a repeated stamp
   with nothing kept computes and keeps. *)
let plan_trace t c =
  let site = c.ctl_site in
  let repeated =
    match c.ctl_stamp with
    | Some before -> Local_trace.same_input (Local_trace.stamp t.eng site) before
    | None -> false
  in
  match c.ctl_kept with
  | Some outcome when repeated -> Reuse outcome
  | _ ->
      c.ctl_kept <- None;
      let snap = Snapshot.take site.Site.heap in
      let input = Local_trace.input_of_snapshot t.eng site snap in
      c.ctl_stamp <- Some (Local_trace.stamp t.eng site);
      Compute (input, repeated)

let outcome_of_plan t c = function
  | Reuse outcome ->
      c.ctl_reused <- c.ctl_reused + 1;
      outcome
  | Compute (input, keep) ->
      c.ctl_computed <- c.ctl_computed + 1;
      let outcome = profiled_compute t c input in
      if keep then c.ctl_kept <- Some outcome;
      outcome

let finish_window t site_id =
  let c = ctl t site_id in
  match c.ctl_window with
  | None -> ()
  | Some w ->
      c.ctl_window <- None;
      if not c.ctl_site.Site.crashed then
        apply_outcome t site_id
          ~arrived:(List.rev w.w_arrived)
          (outcome_of_plan t c w.w_plan)

let run_scheduled_trace t site_id =
  let c = ctl t site_id in
  if c.ctl_window = None then begin
    let conf = cfg t in
    let plan = plan_trace t c in
    if Sim_time.compare conf.Config.trace_duration Sim_time.zero <= 0 then
      (* Atomic trace. *)
      apply_outcome t site_id (outcome_of_plan t c plan)
    else begin
      (* Open a snapshot-at-beginning window (§6.2); back traces keep
         reading the old tables until the swap. *)
      c.ctl_window <- Some { w_plan = plan; w_arrived = [] };
      Engine.schedule t.eng ~delay:conf.Config.trace_duration (fun () ->
          finish_window t site_id)
    end
  end

let force_local_trace t site_id =
  let c = ctl t site_id in
  (* Discard any open window: the atomic trace supersedes it. *)
  c.ctl_window <- None;
  install_outcome t site_id (outcome_of_plan t c (plan_trace t c))

let force_local_trace_all t =
  Array.iter
    (fun c ->
      if not c.ctl_site.Site.crashed then force_local_trace t c.ctl_site.Site.id)
    t.ctls

let root_memo_stats t =
  Array.fold_left
    (fun (h, m) c ->
      let h', m' = Local_trace.memo_stats c.ctl_memo in
      (h + h', m + m'))
    (0, 0) t.ctls

let reuse_stats t =
  Array.fold_left
    (fun (r, n) c -> (r + c.ctl_reused, n + c.ctl_computed))
    (0, 0) t.ctls

let install eng =
  let metrics = Engine.metrics eng and series = Engine.series eng in
  let gauge name = lazy (Tel.Series.series_ref series name ~kind:Gauge) in
  let t =
    {
      eng;
      back = Back_trace.create eng;
      ctls =
        Array.map
          (fun s ->
            {
              ctl_site = s;
              ctl_window = None;
              ctl_memo = Local_trace.memo ();
              ctl_stamp = None;
              ctl_kept = None;
              ctl_reused = 0;
              ctl_computed = 0;
              ctl_meters = Local_trace.meters eng s;
              ctl_candidates =
                lazy
                  (Metrics.hist_ref metrics
                     (Site.metric_label s "back.trigger_candidates"));
              ctl_resident =
                lazy
                  (Tel.Series.series_ref series
                     (Site.metric_label s "bytes_resident")
                     ~kind:Gauge);
            })
          (Engine.sites eng);
      meters =
        {
          m_candidates =
            lazy (Metrics.hist_ref metrics "back.trigger_candidates");
          m_candidates_series =
            lazy
              (Tel.Series.series_ref series "back.trigger_candidates"
                 ~kind:Counter);
          m_back_bytes = gauge "bytes.back_trace";
          m_workspace = gauge "bytes.trace_workspace";
        };
      auto_back_traces = true;
      after_trace = (fun _ -> ());
      eff_threshold2 = (Engine.config eng).Config.threshold2;
      recent_live = 0;
      recent_garbage = 0;
    }
  in
  if (Engine.config eng).Config.adaptive_threshold then
    Back_trace.on_outcome t.back (fun _ outcome _ ->
        (match outcome with
        | Verdict.Live -> t.recent_live <- t.recent_live + 1
        | Verdict.Garbage -> t.recent_garbage <- t.recent_garbage + 1);
        (* Every four outcomes: if Live dominates, raise the threshold
           and restart the window. *)
        if t.recent_live + t.recent_garbage >= 4 then begin
          if t.recent_live > 2 * t.recent_garbage then begin
            t.eff_threshold2 <-
              t.eff_threshold2 + (Engine.config eng).Config.threshold_bump;
            Metrics.incr (Engine.metrics eng) "adaptive.threshold_raised"
          end;
          t.recent_live <- 0;
          t.recent_garbage <- 0
        end);
  Array.iter
    (fun c ->
      let s = c.ctl_site in
      let id = s.Site.id in
      s.Site.hooks.Site.h_run_local_trace <-
        (fun () -> run_scheduled_trace t id);
      s.Site.hooks.Site.h_ref_arrived <- (fun r -> barrier_ref_arrived t id r);
      s.Site.hooks.Site.h_ioref_cleaned <-
        (fun r -> Back_trace.on_cleaned t.back id r);
      s.Site.hooks.Site.h_ext <-
        (fun ~src ext -> ignore (Back_trace.handle_ext t.back id ~src ext)))
    t.ctls;
  t
