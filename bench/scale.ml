(* Scale benchmark: the local-trace hot path at 10^3 / 10^4 objects per
   site, and a full back-trace ring collection.

     scale.exe [--out PATH]

   - Phase bench, per tier: one "big" site Q carrying a rooted chain
     half (clean phase work), a suspected half of inref-headed SCC
     groups wired to a small pool of remote targets (suspect phase:
     fused Tarjan + memoized outset unions, saturating to few distinct
     outsets — the §5.2 hash-consing regime), and a slab of
     unreferenced local garbage (dead-set work). One
     [Local_trace.compute] reports its visit and outset-store counts.

   - Ring bench: a 4-site sim with rooted filler chains per site plus
     unrooted cross-site cycle rings, run round by round until back
     tracing has collected the rings; it reports the rounds, the cost
     ledger, the series section and the profile's work units.

   Everything is seeded and the engine deterministic, and no value
   written is a host time, so the artifact is byte-identical across
   runs and machines: `dune runtest` diffs it against the committed
   BENCH_scale.json. Wall time is measured by bench/e2e. *)

open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts
open Dgc_core

let say fmt = Format.kasprintf print_endline fmt

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
  (* Unreferenced local garbage: pure dead-set work. *)
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

let phase_bench m ~tier ~n =
  let cfg = { cfg_base with Config.n_sites = 3; seed = 1000 + n } in
  let sim = Sim.make ~cfg () in
  let eng = sim.Sim.eng in
  let rng = Rng.create ~seed:(77 + n) in
  let n_q = build_phase_workload eng ~n ~rng in
  let q = Engine.site eng (site 1) in
  let o =
    Local_trace.compute ~mode:Local_trace.Bottom_up
      (Local_trace.input_of_site eng q)
  in
  let st = o.Local_trace.ot_stats in
  let c name v = Metrics.add m (Printf.sprintf "scale.%s.%s" tier name) v in
  c "clean_visits" st.Local_trace.clean_visits;
  c "suspect_visits" st.Local_trace.suspect_visits;
  c "distinct_outsets" st.Local_trace.distinct_outsets;
  c "union_calls" st.Local_trace.union_calls;
  c "memo_hits" st.Local_trace.memo_hits;
  c "inset_entries" st.Local_trace.inset_entries;
  c "suspected_inrefs" st.Local_trace.suspected_inrefs;
  c "suspected_outrefs" st.Local_trace.suspected_outrefs;
  c "objects" n_q;
  c "dead" (List.length o.Local_trace.dead);
  say "  %-6s objects=%-7d visits=%d+%d dead=%d" tier n_q
    st.Local_trace.clean_visits st.Local_trace.suspect_visits
    (List.length o.Local_trace.dead)

(* --- ring bench -------------------------------------------------------- *)

let ring_bench m ~tier ~n =
  let cfg =
    {
      cfg_base with
      Config.n_sites = 4;
      seed = 2000 + n;
      (* the profiler draws no randomness and schedules no events, so
         it observes the same rounds it would leave alone *)
      profile = true;
    }
  in
  let sim = Sim.make ~cfg () in
  let eng = sim.Sim.eng in
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
     age of the oldest still-uncollected garbage (0 once clean). *)
  let first_seen : (Oid.t, float) Hashtbl.t = Hashtbl.create 64 in
  let sample_floating () =
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
  in
  Sim.start sim;
  sample_floating ();
  let max_rounds = 15 in
  let rec loop k =
    if all_freed () then (k, true)
    else if k >= max_rounds then (k, false)
    else begin
      Sim.run_rounds sim 1;
      sample_floating ();
      loop (k + 1)
    end
  in
  let rounds, collected = loop 0 in
  Metrics.add m (Printf.sprintf "scale.%s.ring_rounds" tier) rounds;
  Metrics.add m
    (Printf.sprintf "scale.%s.ring_collected" tier)
    (if collected then 1 else 0);
  let ledger = Back_trace.ledger_rows (Collector.back sim.Sim.col) in
  let module L = Dgc_profile.Ledger in
  let r = L.rollup ledger in
  let c name v = Metrics.add m (Printf.sprintf "ledger.%s.%s" tier name) v in
  c "traces" r.L.r_traces;
  c "collected" r.L.r_collected;
  c "msgs" r.L.r_msgs;
  c "bytes" r.L.r_bytes;
  c "frames" r.L.r_frames;
  c "msgs_per_cycle_milli" r.L.r_msgs_per_cycle_milli;
  c "bytes_per_cycle_milli" r.L.r_bytes_per_cycle_milli;
  say "  %-6s rings %s in %d rounds; %.3f msgs / %.1f bytes per collected cycle"
    tier
    (if collected then "collected" else "NOT collected")
    rounds
    (float_of_int r.L.r_msgs_per_cycle_milli /. 1000.)
    (float_of_int r.L.r_bytes_per_cycle_milli /. 1000.);
  let profile =
    Dgc_profile.Profile.to_json ~wall:false
      ~name:(Printf.sprintf "scale-%s-ring" tier)
      ~ledger
      (Option.get (Engine.profile eng))
  in
  (Sim_time.to_seconds (Engine.now eng), Engine.series eng, profile)

(* --- driver ------------------------------------------------------------ *)

let () =
  let out =
    match Array.to_list Sys.argv with
    | [ _ ] -> "BENCH_scale.json"
    | [ _; "--out"; path ] -> path
    | _ ->
        prerr_endline "usage: scale.exe [--out PATH]";
        exit 2
  in
  let m = Metrics.create () in
  List.iter
    (fun (tier, n) ->
      say "tier %s: %d objects/site" tier n;
      phase_bench m ~tier ~n)
    [ ("t1k", 1_000); ("t10k", 10_000) ];
  (* One ring, at t10k: the rings are the same at every tier, so its
     rounds and ledger do not grow with the filler. *)
  say "ring t10k";
  let sim_seconds, series, profile = ring_bench m ~tier:"t10k" ~n:10_000 in
  let art =
    Dgc_telemetry.Run_artifact.make ~name:"scale-bench" ~sim_seconds ~series
      ~profile m
  in
  (match
     Dgc_telemetry.Run_artifact.validate
       ~require_counter_prefixes:[ "scale."; "ledger." ] art
   with
  | Ok () -> ()
  | Error e -> Fmt.failwith "scale artifact failed validation: %s" e);
  Dgc_telemetry.Json.write_file ~path:out art;
  say "wrote %s" out
