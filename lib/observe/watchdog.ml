open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts
open Dgc_core

type alert = {
  al_at : Sim_time.t;
  al_kind : string;
  al_site : Site_id.t option;
  al_text : string;
}

type t = {
  col : Collector.t;
  stuck_factor : float;
  starvation_bumps : int;
  survive_rounds : int;
  interval : Sim_time.t;
  mutable last_check : Sim_time.t;
  seen : (string, unit) Hashtbl.t;  (** one alert per subject *)
  first_seen_garbage : int Oid.Tbl.t;  (** oid -> round first seen *)
  mutable rev_alerts : alert list;
  mutable leak_probe : (Trace_id.t -> string option) option;
}

let eng t = Collector.engine t.col

let raise_alert t ~kind ?site fmt =
  Format.kasprintf
    (fun text ->
      let e = eng t in
      let a = { al_at = Engine.now e; al_kind = kind; al_site = site; al_text = text } in
      t.rev_alerts <- a :: t.rev_alerts;
      Metrics.incr (Engine.metrics e) ("watchdog." ^ kind);
      Engine.jlog e ~level:Journal.Warn ~cat:"watchdog" "%s: %s" kind text)
    fmt

let once t key f = if not (Hashtbl.mem t.seen key) then begin
    Hashtbl.replace t.seen key ();
    f ()
  end

let deadline t =
  let timeout =
    Sim_time.to_seconds (Engine.config (eng t)).Config.back_call_timeout
  in
  t.stuck_factor *. timeout

let check_stuck_frames t =
  let e = eng t in
  let now = Sim_time.to_seconds (Engine.now e) in
  let limit = deadline t in
  Array.iter
    (fun (s : Site.t) ->
      let id = s.Site.id in
      List.iter
        (fun (fi : Back_trace.frame_info) ->
          let age = now -. Sim_time.to_seconds fi.Back_trace.fi_started in
          (* Prefer the leak detector's proof when a sanitizer is wired
             in: a proved lost trace is reported at once with its causal
             evidence; the age heuristic is only the fallback. *)
          let verdict =
            match t.leak_probe with
            | Some probe -> probe fi.Back_trace.fi_trace
            | None -> None
          in
          match verdict with
          | Some evidence ->
              once t
                (Format.asprintf "frame/%a/%a/%d" Site_id.pp id Trace_id.pp
                   fi.Back_trace.fi_trace fi.Back_trace.fi_id)
                (fun () ->
                  raise_alert t ~kind:"stuck_frame" ~site:id
                    "frame #%d (%s) of %a on %a can never settle — %s"
                    fi.Back_trace.fi_id fi.Back_trace.fi_kind Trace_id.pp
                    fi.Back_trace.fi_trace Oid.pp fi.Back_trace.fi_ioref
                    evidence)
          | None ->
              if age > limit then
                once t
                  (Format.asprintf "frame/%a/%a/%d" Site_id.pp id Trace_id.pp
                     fi.Back_trace.fi_trace fi.Back_trace.fi_id)
                  (fun () ->
                    raise_alert t ~kind:"stuck_frame" ~site:id
                      "frame #%d (%s) of %a on %a open for %.1fs (> %.1fs)"
                      fi.Back_trace.fi_id fi.Back_trace.fi_kind Trace_id.pp
                      fi.Back_trace.fi_trace Oid.pp fi.Back_trace.fi_ioref
                      age limit))
        (Back_trace.open_frames (Collector.back t.col) id))
    (Engine.sites e)

let check_stuck_traces t =
  let e = eng t in
  let now = Sim_time.to_seconds (Engine.now e) in
  let limit = deadline t in
  List.iter
    (fun (trace, (st : Back_trace.trace_stat)) ->
      match st.Back_trace.ts_outcome with
      | Some _ -> ()
      | None -> (
          let age = now -. Sim_time.to_seconds st.Back_trace.ts_started in
          let verdict =
            match t.leak_probe with
            | Some probe -> probe trace
            | None -> None
          in
          match verdict with
          | Some evidence ->
              once t
                (Format.asprintf "trace/%a" Trace_id.pp trace)
                (fun () ->
                  raise_alert t ~kind:"stuck_trace"
                    ~site:st.Back_trace.ts_initiator
                    "%a (root %a) can never report — %s" Trace_id.pp trace
                    Oid.pp st.Back_trace.ts_root evidence)
          | None ->
              if age > limit then
                once t
                  (Format.asprintf "trace/%a" Trace_id.pp trace)
                  (fun () ->
                    raise_alert t ~kind:"stuck_trace"
                      ~site:st.Back_trace.ts_initiator
                      "%a (root %a) no outcome after %.1fs (> %.1fs): never \
                       reached the report phase"
                      Trace_id.pp trace Oid.pp st.Back_trace.ts_root age
                      limit)))
    (Back_trace.stats (Collector.back t.col))

let check_starved_thresholds t =
  let e = eng t in
  let cfg = Engine.config e in
  let floor =
    Collector.effective_threshold2 t.col
    + (t.starvation_bumps * cfg.Config.threshold_bump)
  in
  Array.iter
    (fun (s : Site.t) ->
      let id = s.Site.id in
      Tables.iter_outrefs s.Site.tables (fun o ->
          if
            o.Ioref.or_suspected
            && (not (Ioref.outref_clean o))
            && o.Ioref.or_back_threshold >= floor
            && o.Ioref.or_dist <= o.Ioref.or_back_threshold
            && Trace_id.Set.is_empty o.Ioref.or_visited
          then
            once t
              (Format.asprintf "thr/%a/%a" Site_id.pp id Oid.pp
                 o.Ioref.or_target)
              (fun () ->
                raise_alert t ~kind:"starved_threshold" ~site:id
                  "suspected outref %a: back threshold bumped to %d (≥ Δ2 + \
                   %d×%d) while dist=%d — §4.3 re-trigger starved"
                  Oid.pp o.Ioref.or_target o.Ioref.or_back_threshold
                  t.starvation_bumps cfg.Config.threshold_bump
                  o.Ioref.or_dist)))
    (Engine.sites e)

let check_surviving_garbage t =
  let e = eng t in
  let rounds = Engine.trace_rounds_completed e in
  let garbage = Dgc_oracle.Oracle.garbage_set e in
  Oid.Set.iter
    (fun oid ->
      match Oid.Tbl.find_opt t.first_seen_garbage oid with
      | None -> Oid.Tbl.replace t.first_seen_garbage oid rounds
      | Some first ->
          if rounds - first >= t.survive_rounds then
            once t
              (Format.asprintf "gc/%a" Oid.pp oid)
              (fun () ->
                raise_alert t ~kind:"surviving_garbage" ~site:(Oid.site oid)
                  "garbage object %a survived %d rounds of local traces"
                  Oid.pp oid (rounds - first)))
    garbage;
  (* Objects that left the garbage set were collected (or resurrected
     by an in-flight ref): forget them so a later appearance restarts
     the clock. *)
  let stale =
    Oid.Tbl.fold
      (fun oid _ acc -> if Oid.Set.mem oid garbage then acc else oid :: acc)
      t.first_seen_garbage []
  in
  List.iter (Oid.Tbl.remove t.first_seen_garbage) stale

let run_checks t =
  let before = t.rev_alerts in
  check_stuck_frames t;
  check_stuck_traces t;
  check_starved_thresholds t;
  check_surviving_garbage t;
  let rec fresh acc l =
    if l == before then acc
    else
      match l with [] -> acc | a :: rest -> fresh (a :: acc) rest
  in
  fresh [] t.rev_alerts

let check_now t =
  t.last_check <- Engine.now (eng t);
  run_checks t

let attach ?(stuck_factor = 3.0) ?(starvation_bumps = 4) ?(survive_rounds = 3)
    ?check_interval col =
  let e = Collector.engine col in
  let interval =
    match check_interval with
    | Some i -> i
    | None -> (Engine.config e).Config.trace_interval
  in
  let t =
    {
      col;
      stuck_factor;
      starvation_bumps;
      survive_rounds;
      interval;
      last_check = Engine.now e;
      seen = Hashtbl.create 64;
      first_seen_garbage = Oid.Tbl.create 64;
      rev_alerts = [];
      leak_probe = None;
    }
  in
  Engine.add_step_watcher e (fun () ->
      let now = Engine.now e in
      if Sim_time.compare (Sim_time.sub now t.last_check) t.interval >= 0
      then begin
        t.last_check <- now;
        ignore (run_checks t)
      end);
  t

let set_leak_probe t probe = t.leak_probe <- Some probe

let alerts t = List.rev t.rev_alerts

let alert_counts t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun a ->
      Hashtbl.replace tbl a.al_kind
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl a.al_kind)))
    t.rev_alerts;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp ppf t =
  match alerts t with
  | [] -> Format.fprintf ppf "watchdog: quiet (%d subjects tracked)" (Hashtbl.length t.seen)
  | als ->
      Format.fprintf ppf "@[<v>watchdog: %d alerts" (List.length als);
      List.iter
        (fun a ->
          Format.fprintf ppf "@,[%8.3fs] %-18s %s"
            (Sim_time.to_seconds a.al_at) a.al_kind a.al_text)
        als;
      Format.fprintf ppf "@]"
