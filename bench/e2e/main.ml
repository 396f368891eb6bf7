(* End-to-end and per-layer benchmark of the back-tracing simulator.

     main.exe --workload NAME --seed N [--seconds S] [--trace 0|1]
              [--tiny] [--trace-json PATH]

   One workload per process, one domain, no shards. An untimed warm-up
   rep, then timed reps until [--seconds] of timed wall have passed
   (at least three), then one checked rep; host metrics are medians
   over the timed reps. Each rep rebuilds the workload from the seed
   and calls [Gc.compact ()] first. Wall time is taken only around
   the [Sim.run_for] slices of 15 simulated seconds (or around each
   chaos case). The checked rep samples the oracle between slices,
   untimed and followed by [Gc.full_major ()], and yields the exact
   simulation metrics and the safety check.

   [--trace 1] makes the checked rep a traced one (hook wrappers, a
   profiler with the bench's clock, spans written as Chrome trace
   JSON), adds a rep with the flight recorder off and end-of-run heap
   probes, and prints the per-layer metrics instead of the end-to-end
   ones.

   Every rep prints a simulation fingerprint; all reps, traced or not,
   must agree, and no live object may have been freed. The last line
   of stdout is one JSON object; the exit code is 1 when a
   correctness check fails. *)

open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts
open Dgc_core
module Json = Dgc_telemetry.Json
module Oracle = Dgc_oracle.Oracle
module Prof = Dgc_profile.Profile
module Campaign = Dgc_chaos.Campaign
module Churn = Dgc_workload.Churn

let now = Clock.now
let slice = Sim_time.of_seconds 15.
let say fmt = Format.kasprintf print_endline fmt

(* ---- statistics -------------------------------------------------------- *)

let sorted_arr xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (host-time samples). *)
let quantile xs q =
  let a = sorted_arr xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5
let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs))

(* Nearest rank: always an observed value, so exact metrics stay exact. *)
let rank_quantile xs q =
  let a = sorted_arr xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

(* ---- oracle-side bookkeeping (untimed) ---------------------------------- *)

let present eng r = Heap.mem (Engine.site eng (Oid.site r)).Site.heap r

(* Live references to freed objects: a root, or a field of a live
   object, whose target is gone. The oracle's live set only contains
   objects still present, so a freed live object shows up here as a
   dangling root or field. *)
let safety_violations eng live =
  let bad = ref 0 in
  let check r = if not (present eng r) then incr bad in
  Array.iter
    (fun s ->
      List.iter check (Heap.persistent_roots s.Site.heap);
      List.iter check (Engine.app_roots eng s.Site.id))
    (Engine.sites eng);
  List.iter check (Engine.in_flight_refs eng);
  Oid.Set.iter
    (fun o -> List.iter check (Heap.fields (Engine.site eng (Oid.site o)).Site.heap o))
    live;
  !bad

(* Garbage objects sighted by the oracle, with the simulated second of
   their first sighting, and the time-to-collect of those already gone.
   [retire] closes one engine's books (chaos cases reuse object ids). *)
type tracker = {
  seen : unit Oid.Tbl.t;
  mutable pending : (Oid.t * float) list;
  mutable sighted : int;
  mutable lost : int;  (** retired while still present *)
  mutable ttc : float list;
  mutable live_ms : float list;
  spans : Spans.t option;
}

let tracker spans =
  { seen = Oid.Tbl.create 1024; pending = []; sighted = 0; lost = 0; ttc = []; live_ms = []; spans }

let retire tr =
  tr.lost <- tr.lost + List.length tr.pending;
  tr.pending <- [];
  Oid.Tbl.reset tr.seen

let live_set tr eng =
  let t0 = now () in
  let live = Oracle.live_set eng in
  let t1 = now () in
  tr.live_ms <- ((t1 -. t0) *. 1000.) :: tr.live_ms;
  Option.iter (fun sp -> Spans.record sp "oracle.live_set" ~start:t0 ~stop:t1) tr.spans;
  live

let sight tr eng =
  let live = live_set tr eng in
  let at = Sim_time.to_seconds (Engine.now eng) in
  Array.iter
    (fun s ->
      Heap.iter s.Site.heap (fun o ->
          let r = o.Heap.oid in
          if (not (Oid.Set.mem r live)) && not (Oid.Tbl.mem tr.seen r) then begin
            Oid.Tbl.add tr.seen r ();
            tr.sighted <- tr.sighted + 1;
            tr.pending <- (r, at) :: tr.pending
          end))
    (Engine.sites eng)

(* Drop collected objects from [pending] (only those of site [only],
   when given), recording their time-to-collect. *)
let note_collected ?only tr eng =
  let at = Sim_time.to_seconds (Engine.now eng) in
  let check (r, seen) =
    match only with
    | Some s when not (Site_id.equal (Oid.site r) s) -> true
    | _ ->
        present eng r
        ||
        (tr.ttc <- (at -. seen) :: tr.ttc;
         false)
  in
  tr.pending <- List.filter check tr.pending

(* ---- what a rep must reproduce ---------------------------------------------- *)

let counter counters k = Option.value (List.assoc_opt k counters) ~default:0

(* Events, wire traffic, frees and every back-trace counter, plus the
   chaos failures by kind: equal across reps at one seed, traced or
   not, flight recorder on or off. *)
let fingerprint ~events ~failures counters =
  let keyed =
    List.filter
      (fun (k, _) ->
        List.mem k [ "msg.total"; "msg.bytes"; "gc.objects_freed" ]
        || String.starts_with ~prefix:"back." k)
      counters
  in
  String.concat " "
    ((Printf.sprintf "events=%d" events
     :: List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) keyed)
    @ List.map (fun (k, n) -> Printf.sprintf "failed.%s=%d" k n) failures)

(* What the oracle saw in a checked rep. *)
type oracle = {
  ttc : float list;
  seen : int;
  collected : int;
  safety : int;
  live_ms : float list;
}

let oracle_of (tr : tracker) ~safety =
  retire tr;
  { ttc = tr.ttc; seen = tr.sighted; collected = tr.sighted - tr.lost; safety; live_ms = tr.live_ms }

let oracle_key o =
  Printf.sprintf "ttc.n=%d ttc.sum=%.6f collected=%d/%d safety=%d" (List.length o.ttc)
    (List.fold_left ( +. ) 0. o.ttc) o.collected o.seen o.safety

(* ---- the traced side ------------------------------------------------------ *)

(* Hook wrappers and a profiler whose clock also measures how much of
   [Local_trace.compute] runs inside a window-open call: atomic traces
   (the chaos configuration) compute inside [h_run_local_trace], §6.2
   windows compute later, in the window-close event. Inside a
   window-open call only the local-trace scopes read the clock, so the
   first and last reading bracket that compute. *)
type probe_clock = {
  mutable in_open : bool;
  mutable first : float;
  mutable last : float;
  mutable inside : float;
}

let clock pc () =
  let t = now () in
  if pc.in_open then begin
    if pc.first < 0. then pc.first <- t;
    pc.last <- t
  end;
  t

let instrument sp pc eng =
  let p = Prof.create ~clock:(clock pc) () in
  Engine.attach_profile eng p;
  Array.iter
    (fun s ->
      let h = s.Site.hooks in
      let run_trace = h.Site.h_run_local_trace
      and arrived = h.Site.h_ref_arrived
      and ext = h.Site.h_ext in
      h.Site.h_run_local_trace <-
        (fun () ->
          pc.in_open <- true;
          pc.first <- -1.;
          Fun.protect
            ~finally:(fun () ->
              pc.in_open <- false;
              if pc.first >= 0. then pc.inside <- pc.inside +. (pc.last -. pc.first))
            (fun () -> Spans.span sp "collector.window_open" run_trace));
      h.Site.h_ref_arrived <-
        (fun r -> Spans.span sp "collector.barrier" (fun () -> arrived r));
      h.Site.h_ext <- (fun ~src e -> Spans.span sp "back_trace.handle" (fun () -> ext ~src e)))
    (Engine.sites eng);
  p

(* Profiler self walls (seconds) and work units by scope path, summed
   over the engines of a rep. *)
let add_profile walls work p =
  let bump tbl k v = Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.) in
  match Json.member "nodes" (Prof.to_json ~wall:true p) with
  | Some (Json.Arr nodes) ->
      List.iter
        (fun n ->
          match Json.member "path" n with
          | Some (Json.Str path) ->
              Option.iter (fun ns -> bump walls path (ns /. 1e9))
                (Option.bind (Json.member "wall_ns" n) Json.to_float_opt);
              (match Json.member "work" n with
              | Some (Json.Obj units) ->
                  List.iter
                    (fun (u, v) ->
                      Option.iter (bump work (path ^ "/" ^ u)) (Json.to_float_opt v))
                    units
              | _ -> ())
          | _ -> ())
        nodes
  | _ -> ()

(* End-of-run probes on every site's final state: median of five
   [Snapshot.take] and of five [Local_trace.input_of_snapshot] calls
   per site, summed over the sites (ms). *)
let probe_heaps sp eng =
  let med5 name f =
    median
      (List.init 5 (fun _ ->
           let t0 = now () in
           Spans.span sp name (fun () -> ignore (Sys.opaque_identity (f ())));
           (now () -. t0) *. 1000.))
  in
  Array.fold_left
    (fun (snap_ms, input_ms) s ->
      let snap = Dgc_heap.Snapshot.take s.Site.heap in
      ( snap_ms +. med5 "heap.snapshot" (fun () -> Dgc_heap.Snapshot.take s.Site.heap),
        input_ms +. med5 "heap.input" (fun () -> Local_trace.input_of_snapshot eng s snap) ))
    (0., 0.) (Engine.sites eng)

type traced = {
  sp : Spans.t;
  pc : probe_clock;
  walls : (string, float) Hashtbl.t;
  work : (string, float) Hashtbl.t;
  mutable timed_s : float;  (** slice (or case-run) wall covered by the table *)
  mutable heap_ms : float * float;
}

let new_traced ~rep =
  {
    sp = Spans.create ~rep ();
    pc = { in_open = false; first = -1.; last = 0.; inside = 0. };
    walls = Hashtbl.create 32;
    work = Hashtbl.create 32;
    timed_s = 0.;
    heap_ms = (0., 0.);
  }

(* ---- one rep ------------------------------------------------------------- *)

type rep = {
  setup_s : float;
  case_ms : (float * float) list;  (** chaos: each case's setup and run wall, ms *)
  run_s : float;
  events : int;
  minor_words : float;
  major_collections : int;
  counters : (string * int) list;
  cases : int;
  failures : (string * int) list;  (** chaos: failed cases by kind *)
  fingerprint : string;
  oracle : oracle option;  (** checked reps only *)
}

let gc_major () = (Gc.quick_stat ()).Gc.major_collections

(* A checked rep samples the oracle between slices (static workloads
   once at start, mutator-churn every slice and once after the agents
   stop), records when each sighted garbage object is gone, and checks
   safety at the horizon. Oracle reads draw no randomness and schedule
   nothing, so checked and unchecked reps run the same schedule; the
   fingerprint comparison in [main] holds them to it. *)
let sim_rep (w : Work.sim) ~seed ~flight ~check ~traced =
  Gc.compact ();
  let cfg =
    {
      Config.default with
      Config.n_sites = w.Work.n_sites;
      seed;
      oracle_checks = false;
      check_level = Config.Check_off;
      flight_capacity = (if flight then Config.default.Config.flight_capacity else 0);
      trace_duration =
        (if w.Work.atomic then Sim_time.zero else Config.default.Config.trace_duration);
    }
  in
  let t0 = now () in
  let sim = Sim.make ~cfg () in
  let rng = Rng.create ~seed:(seed lxor 0x5eed) in
  w.Work.build sim rng;
  let churn =
    Option.map
      (fun c ->
        ( c,
          Churn.start sim ~rng:(Rng.split rng) ~agents:c.Work.agents
            ~mean_op_gap:(Sim_time.of_millis c.Work.gap_ms) ))
      w.Work.churn
  in
  Sim.start sim;
  let setup_s = now () -. t0 in
  let eng = sim.Sim.eng in
  let events = ref 0 in
  Engine.add_step_watcher eng (fun () -> incr events);
  let sp = Option.map (fun t -> t.sp) traced in
  let tr = if check then Some (tracker sp) else None in
  Option.iter
    (fun tr ->
      sight tr eng;
      Gc.full_major ())
    tr;
  let prof = Option.map (fun t -> instrument t.sp t.pc eng) traced in
  let n = w.Work.rounds * 4 in
  let walls = Array.make n 0. in
  let minor = ref 0. and major = ref 0 in
  let dynamic = Option.is_some churn in
  for i = 0 to n - 1 do
    let w0 = Gc.minor_words () and m0 = gc_major () in
    let t = now () in
    (match sp with
    | Some sp -> Spans.span sp "slice" (fun () -> Sim.run_for sim slice)
    | None -> Sim.run_for sim slice);
    walls.(i) <- now () -. t;
    minor := !minor +. (Gc.minor_words () -. w0);
    major := !major + (gc_major () - m0);
    Option.iter
      (fun tr ->
        note_collected tr eng;
        if dynamic then sight tr eng)
      tr;
    (match churn with
    | Some (c, agents) when i + 1 = c.Work.stop_round * 4 ->
        Churn.stop agents;
        Option.iter (fun tr -> sight tr eng) tr
    | _ -> ());
    if dynamic && check then Gc.full_major ()
  done;
  let oracle =
    Option.map (fun tr -> oracle_of tr ~safety:(safety_violations eng (live_set tr eng))) tr
  in
  let counters = Metrics.counters (Engine.metrics eng) in
  (match (traced, prof) with
  | Some t, Some p ->
      add_profile t.walls t.work p;
      t.timed_s <- Array.fold_left ( +. ) 0. walls;
      t.heap_ms <- probe_heaps t.sp eng
  | _ -> ());
  {
    setup_s;
    case_ms = [];
    run_s = Array.fold_left ( +. ) 0. walls;
    events = !events;
    minor_words = !minor;
    major_collections = !major;
    counters;
    cases = 0;
    failures = [];
    fingerprint = fingerprint ~events:!events ~failures:[] counters;
    oracle;
  }

(* The chaos cases run back to back through [Campaign.run_case]. Its
   probe fires after the case's setup (workload build, settle, start,
   plan armed): set-up time is plan generation plus every case's
   setup, the per-engine fixed cost this workload exists to expose;
   run time is every case from the probe on. The bench counts events
   from the probe on and, in a checked rep, samples the oracle there
   and notes collections whenever a site completes a local trace. The
   probe itself is not timed. *)
let chaos_rep (c : Work.chaos) ~seed ~flight ~check ~traced =
  Gc.compact ();
  let t0 = now () in
  let cases = Work.chaos_cases c ~seed in
  let setup_s = ref (now () -. t0) in
  let tweak cfg = if flight then cfg else { cfg with Config.flight_capacity = 0 } in
  let sp = Option.map (fun t -> t.sp) traced in
  let tr = if check then Some (tracker sp) else None in
  let events = ref 0 in
  let sums = Hashtbl.create 64 in
  let safety = ref 0 in
  let last_eng = ref None in
  let units = ref [] and minor = ref 0. and major = ref 0 in
  let failures = Hashtbl.create 4 in
  List.iter
    (fun case ->
      let ta = now () in
      let p_in = ref ta and p_out = ref ta in
      let case_eng = ref None and prof = ref None in
      let probe pb =
        p_in := now ();
        let eng = pb.Campaign.pb_eng in
        case_eng := Some eng;
        (match tr with
        | None -> Engine.add_step_watcher eng (fun () -> incr events)
        | Some tr ->
            sight tr eng;
            let sites = Engine.sites eng in
            let epochs = Array.map (fun s -> s.Site.trace_epoch) sites in
            Engine.add_step_watcher eng (fun () ->
                incr events;
                for i = 0 to Array.length sites - 1 do
                  let e = sites.(i).Site.trace_epoch in
                  if e <> epochs.(i) then begin
                    epochs.(i) <- e;
                    note_collected ~only:sites.(i).Site.id tr eng
                  end
                done));
        (match traced with
        | Some t ->
            prof := Some (instrument t.sp t.pc eng);
            Spans.record t.sp "chaos.case_setup" ~start:ta ~stop:!p_in;
            Spans.enter t.sp "chaos.case_run"
        | None -> ());
        p_out := now ()
      in
      let w0 = Gc.minor_words () and m0 = gc_major () in
      let oc =
        match sp with
        | Some sp ->
            Spans.span sp "chaos.case" (fun () ->
                Fun.protect
                  ~finally:(fun () -> Spans.leave sp)
                  (fun () -> Campaign.run_case ~tweak ~probe case))
        | None -> Campaign.run_case ~tweak ~probe case
      in
      let tb = now () in
      minor := !minor +. (Gc.minor_words () -. w0);
      major := !major + (gc_major () - m0);
      setup_s := !setup_s +. (!p_in -. ta);
      units := ((!p_in -. ta) *. 1000., (tb -. !p_out) *. 1000.) :: !units;
      (match traced with
      | Some t ->
          t.timed_s <- t.timed_s +. (tb -. !p_out);
          Option.iter (add_profile t.walls t.work) !prof
      | None -> ());
      List.iter
        (fun (k, v) ->
          Hashtbl.replace sums k (v + Option.value (Hashtbl.find_opt sums k) ~default:0))
        oc.Campaign.oc_counters;
      (match oc.Campaign.oc_failure with
      | None -> ()
      | Some f ->
          (match f with Campaign.Safety _ -> incr safety | _ -> ());
          if check then
            say "case failed %s: %s" case.Campaign.cs_name (Campaign.failure_to_string f);
          let k = Campaign.failure_kind f in
          Hashtbl.replace failures k (1 + Option.value (Hashtbl.find_opt failures k) ~default:0));
      match (!case_eng, tr) with
      | Some eng, Some tr ->
          note_collected tr eng;
          retire tr;
          safety := !safety + safety_violations eng (live_set tr eng);
          last_eng := Some eng
      | Some eng, None -> last_eng := Some eng
      | None, _ -> ())
    cases;
  (match (traced, !last_eng) with
  | Some t, Some eng -> t.heap_ms <- probe_heaps t.sp eng
  | _ -> ());
  let counters = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) sums []) in
  let failures = List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) failures []) in
  let case_ms = List.rev !units in
  {
    setup_s = !setup_s;
    case_ms;
    run_s = List.fold_left (fun a (_, r) -> a +. r) 0. case_ms /. 1000.;
    events = !events;
    minor_words = !minor;
    major_collections = !major;
    counters;
    cases = c.Work.cases;
    failures;
    fingerprint = fingerprint ~events:!events ~failures counters;
    oracle = Option.map (fun tr -> oracle_of tr ~safety:!safety) tr;
  }

let run_rep ?traced w ~seed ~flight ~check =
  match w with
  | Work.Sim s -> sim_rep s ~seed ~flight ~check ~traced
  | Work.Chaos c -> chaos_rep c ~seed ~flight ~check ~traced

(* ---- metrics --------------------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let frac a b = float_of_int a /. float_of_int (max 1 b)

(* Host metrics are medians over the timed reps; the sim metrics come
   from the checked rep ([o]), equal in every rep. *)
let end_to_end ~reps ~(o : oracle) ~peak_heap_mb =
  let med f = median (List.map f reps) in
  let run_s = med (fun r -> r.run_s) in
  let events = (List.hd reps).events in
  [
    m "setup_s" "s" (med (fun r -> r.setup_s));
    m "run_s" "s" run_s;
    m "events_per_s" "1/s" (float_of_int events /. run_s);
    m "peak_heap_mb" "MiB" peak_heap_mb;
    m "ttc_s.mean" "sim_s" (mean o.ttc);
    m "ttc_s.p95" "sim_s" (rank_quantile o.ttc 0.95);
    m "collected_frac" "ratio" (frac o.collected o.seen);
    m "back_msgs_per_cycle" "msgs"
      (let c = (List.hd reps).counters in
       frac (counter c "back.msgs") (counter c "back.outcome_garbage"));
  ]

(* The per-layer split of the traced rep. Self seconds, each layer's
   span minus the spans nested in it:
   - rts deliveries (profiler [deliver;<kind>] scopes) contain the
     back-trace handler ([h_ext]) and the transfer barrier
     ([h_ref_arrived], called from move and insert deliveries);
   - a window-open call ([h_run_local_trace]) contains the local-trace
     compute when traces are atomic;
   - the engine's own share (queue, timers, sends outside handlers,
     trace apply and sweep) is the slice wall minus all of them.
   [Collector] opens each phase scope of a local trace when the
   previous phase ends, so the scope named after one phase times the
   next: the trace's own self time is the clean phase, [clean] times
   the suspect phase, and [suspect] plus [assemble] time assembly. *)
type layers = {
  rows : (string * float) list;  (** table rows, self seconds *)
  deliver_kinds : (string * float) list;  (** inclusive seconds *)
  accounted : float;
  calls : string -> int;  (** spans recorded under a name *)
}

let layers_of t =
  let tot = Spans.totals t.sp in
  let span_s name = (tot name).Spans.total_s in
  let wall path = Option.value (Hashtbl.find_opt t.walls path) ~default:0. in
  let prefixed pre =
    Hashtbl.fold
      (fun path w acc ->
        if String.starts_with ~prefix:pre path then
          (String.sub path (String.length pre) (String.length path - String.length pre), w)
          :: acc
        else acc)
      t.walls []
    |> List.sort compare
  in
  let kinds = prefixed "all;deliver;" in
  let deliver = wall "all;deliver" +. List.fold_left (fun a (_, w) -> a +. w) 0. kinds in
  let base_kinds = [ "move"; "move_ack"; "insert"; "insert_done"; "update" ] in
  let ext =
    List.fold_left (fun a (k, w) -> if List.mem k base_kinds then a else a +. w) 0. kinds
  in
  let handle = span_s "back_trace.handle" and barrier = span_s "collector.barrier" in
  let lt_phase p = wall ("all;local_trace;" ^ p) in
  let clean = wall "all;local_trace" in
  let suspect = lt_phase "clean" in
  let assemble = lt_phase "suspect" +. lt_phase "assemble" in
  let compute = clean +. suspect +. assemble in
  let wopen = span_s "collector.window_open" in
  let inside = t.pc.inside in
  let engine_self = t.timed_s -. deliver -. wopen -. (compute -. inside) in
  let rows =
    [
      ("simcore.engine_self", engine_self);
      ("rts.deliver.base", deliver -. wall "all;deliver" -. ext -. barrier);
      ("rts.deliver.ext", ext -. handle);
      ("rts.deliver.scope", wall "all;deliver");
      ("collector.window_open", wopen -. inside);
      ("collector.barrier", barrier);
      ("back_trace.handle", handle);
      ("local_trace.clean", clean);
      ("local_trace.suspect", suspect);
      ("local_trace.assemble", assemble);
    ]
  in
  let accounted =
    List.fold_left (fun a (_, s) -> a +. Float.max 0. s) 0. rows /. t.timed_s
  in
  { rows; deliver_kinds = kinds; accounted; calls = (fun name -> (tot name).Spans.calls) }

let per_layer ~reps ~traced_rep ~(o : oracle) ~flight_off ~t ~ly =
  let untraced_run = median (List.map (fun r -> r.run_s) reps) in
  let r = traced_rep in
  let c k = float_of_int (counter r.counters k) in
  let row k = Option.value (List.assoc_opt k ly.rows) ~default:0. in
  let lt_work u = Option.value (Hashtbl.find_opt t.work ("all;local_trace/" ^ u)) ~default:0. in
  let snap_ms, input_ms = t.heap_ms in
  [
    m "simcore.events" "count" (float_of_int r.events);
    m "simcore.engine_self_s" "s" (row "simcore.engine_self");
    m "rts.deliver.base_s" "s" (row "rts.deliver.base");
    m "rts.deliver.ext_s" "s" (row "rts.deliver.ext");
    m "rts.msgs" "count" (c "msg.total");
    m "rts.msg_bytes" "bytes" (c "msg.bytes");
    m "heap.snapshot_ms" "ms" snap_ms;
    m "heap.input_ms" "ms" input_ms;
    m "collector.window_open_s" "s" (row "collector.window_open");
    m "collector.barrier_calls" "count" (float_of_int (ly.calls "collector.barrier"));
    m "barrier.inref_cleaned" "count" (c "barrier.inref_cleaned");
    m "barrier.outref_cleaned" "count" (c "barrier.outref_cleaned");
    m "local_trace.compute_s" "s"
      (row "local_trace.clean" +. row "local_trace.suspect" +. row "local_trace.assemble");
    m "local_trace.clean_s" "s" (row "local_trace.clean");
    m "local_trace.suspect_s" "s" (row "local_trace.suspect");
    m "local_trace.assemble_s" "s" (row "local_trace.assemble");
    m "local_trace.visits" "count" (lt_work "visits");
    m "local_trace.traces" "count" (c "gc.local_traces");
    m "local_trace.freed" "count" (c "gc.objects_freed");
    m "local_trace.memo_hit_rate" "ratio" (lt_work "memo_hits" /. Float.max 1. (lt_work "union_calls"));
    m "back_trace.handle_s" "s" (row "back_trace.handle");
    m "back_trace.calls" "count" (float_of_int (ly.calls "back_trace.handle"));
    m "back_trace.traces" "count" (c "back.traces_started");
    m "back_trace.garbage_frac" "ratio"
      (c "back.outcome_garbage" /. Float.max 1. (c "back.traces_started"));
    m "back_trace.timeouts" "count" (c "back.call_timeout");
    m "back_trace.retries" "count" (c "retry.back_call");
    m "oracle.live_set_ms" "ms" (median o.live_ms);
    m "telemetry.flight_overhead" "ratio" (untraced_run /. flight_off.run_s);
    m "ocaml_gc.minor_mwords" "Mwords" (r.minor_words /. 1e6);
    m "ocaml_gc.major_collections" "count" (float_of_int r.major_collections);
    m "trace.overhead" "ratio" (r.run_s /. untraced_run);
  ]

(* ---- command line ----------------------------------------------------------- *)

type opts = {
  workload : string;
  seed : int option;
  seconds : float;
  trace : bool;
  tiny : bool;
  trace_json : string option;
}

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N [--seconds S] [--trace 0|1] [--tiny] \
     [--trace-json PATH]";
  prerr_endline ("workloads: " ^ String.concat ", " Work.names);
  exit 2

let parse () =
  let o =
    ref { workload = ""; seed = None; seconds = 10.; trace = false; tiny = false; trace_json = None }
  in
  let rec go = function
    | "--workload" :: v :: tl ->
        o := { !o with workload = v };
        go tl
    | "--seed" :: v :: tl ->
        o := { !o with seed = Some (match int_of_string_opt v with Some s -> s | None -> usage ()) };
        go tl
    | "--seconds" :: v :: tl ->
        o := { !o with seconds = (match float_of_string_opt v with Some s -> s | None -> usage ()) };
        go tl
    | "--trace" :: v :: tl ->
        o :=
          {
            !o with
            trace = (match v with "0" -> false | "1" -> true | _ -> usage ());
          };
        go tl
    | "--tiny" :: tl ->
        o := { !o with tiny = true };
        go tl
    | "--trace-json" :: v :: tl ->
        o := { !o with trace_json = Some v };
        go tl
    | [] -> ()
    | a :: _ ->
        prerr_endline ("unknown argument: " ^ a);
        usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  !o

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let print_metrics tag ms =
  List.iter (fun mt -> say "%s %s %.12g %s" tag mt.name mt.value mt.unit_) ms

let () =
  let o = parse () in
  let seed = match o.seed with Some s -> s | None -> usage () in
  let w =
    match Work.find ~tiny:o.tiny o.workload with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload: " ^ o.workload);
        usage ()
  in
  say "# e2e workload=%s seed=%d seconds=%g trace=%d tiny=%b" o.workload seed o.seconds
    (if o.trace then 1 else 0)
    o.tiny;
  let problems = ref [] in
  let problem fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  (* The warm-up rep runs first in a fresh process, so the top of the
     heap after it is what one run of the workload needs (OCaml 5.1's
     [Gc.compact] does not shrink the heap, so later reps would only
     add their own fragmentation). *)
  let warm = run_rep w ~seed ~flight:true ~check:false in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.
  in
  let check_rep label r =
    say "rep %s setup_s=%.4f run_s=%.4f events=%d fingerprint %s%s" label r.setup_s r.run_s
      r.events r.fingerprint
      (match r.oracle with Some o -> " oracle " ^ oracle_key o | None -> "");
    if r.fingerprint <> warm.fingerprint then
      problem "rep %s: fingerprint differs from the warm-up rep" label
  in
  check_rep "warmup" warm;
  let rec timed acc k elapsed =
    if k >= 3 && elapsed >= o.seconds then List.rev acc
    else begin
      let r = run_rep w ~seed ~flight:true ~check:false in
      check_rep (string_of_int k) r;
      timed (r :: acc) (k + 1) (elapsed +. r.run_s)
    end
  in
  let reps = timed [] 0 0. in
  (* One checked rep per run; with [--trace 1] it is the traced rep, so
     its fingerprint also shows tracing left the schedule alone. *)
  let traced = if o.trace then Some (new_traced ~rep:(List.length reps + 1)) else None in
  let checked = run_rep w ~seed ~flight:true ~check:true ?traced in
  check_rep (if o.trace then "traced" else "checked") checked;
  let o0 = Option.get checked.oracle in
  if o0.safety > 0 then problem "%d live references to freed objects" o0.safety;
  say "fingerprint %s" warm.fingerprint;
  say "exact safety_violations %d count" o0.safety;
  say "exact garbage_seen %d count" o0.seen;
  say "exact ttc_s.n %d count" (List.length o0.ttc);
  say "exact ttc_s.mean %.12g sim_s" (mean o0.ttc);
  List.iter
    (fun q -> say "exact ttc_s.p%g %.12g sim_s" (100. *. q) (rank_quantile o0.ttc q))
    [ 0.5; 0.75; 0.9; 0.95; 0.99 ];
  say "exact collected_frac %.12g ratio" (frac o0.collected o0.seen);
  say "exact back_msgs_per_cycle %.12g msgs"
    (frac (counter warm.counters "back.msgs") (counter warm.counters "back.outcome_garbage"));
  let cases_failed = List.fold_left (fun a (_, n) -> a + n) 0 warm.failures in
  if warm.cases > 0 then begin
    say "exact cases %d count" warm.cases;
    say "exact case_fail_frac %.12g ratio" (frac cases_failed warm.cases);
    List.iter (fun (k, n) -> say "exact case_failures.%s %d count" k n) warm.failures
  end;
  (* Chaos case latencies, pooled over the timed reps (not gated: the
     sim workloads have no cases). *)
  (match List.concat_map (fun r -> r.case_ms) reps with
  | [] -> ()
  | cases ->
      let setup = List.map fst cases and run = List.map snd cases in
      say "chaos case_setup_ms.p50 %.4f ms" (quantile setup 0.5);
      say "chaos case_ms.p50 %.4f ms" (quantile run 0.5);
      say "chaos case_ms.p99 %.4f ms" (quantile run 0.99);
      say "chaos case_ms.n %d count" (List.length run));
  let metrics =
    match traced with
    | None ->
        let ms = end_to_end ~reps ~o:o0 ~peak_heap_mb in
        print_metrics "metric" ms;
        ms
    | Some t ->
      let flight_off = run_rep w ~seed ~flight:false ~check:false in
      check_rep "flight-off" flight_off;
      let ly = layers_of t in
      say "layer table (self seconds of the traced rep; share of %.4f s timed wall)" t.timed_s;
      List.iter
        (fun (name, s) -> say "layer %-24s %10.4f s %6.2f%%" name s (100. *. s /. t.timed_s))
        ly.rows;
      List.iter (fun (k, s) -> say "deliver %-12s %10.4f s (inclusive)" k s) ly.deliver_kinds;
      say "layer accounted %.2f%%" (100. *. ly.accounted);
      if ly.accounted < 0.9 || ly.accounted > 1.1 then
        problem "per-layer spans account for %.1f%% of the timed wall" (100. *. ly.accounted);
      let ms = per_layer ~reps ~traced_rep:checked ~o:o0 ~flight_off ~t ~ly in
      print_metrics "metric" ms;
      let path =
        match o.trace_json with
        | Some p -> p
        | None -> Printf.sprintf "_build/e2e/trace-%s.json" o.workload
      in
      mkdir_p (Filename.dirname path);
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (Json.to_string (Spans.to_chrome ~workload:o.workload t.sp)));
      say "wrote %s (%d spans)" path (Spans.count t.sp);
      ms
  in
  List.iter (fun p -> say "FAIL %s" p) (List.rev !problems);
  let correct = !problems = [] in
  let attempted, failed =
    if warm.cases > 0 then (warm.cases, cases_failed) else (o0.seen, o0.seen - o0.collected)
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun mt ->
                     (mt.name, Json.Obj [ ("value", Json.Float mt.value); ("unit", Json.Str mt.unit_) ]))
                   metrics) );
          ]));
  exit (if correct then 0 else 1)
