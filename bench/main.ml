(* The experiment harness: one section per figure of the paper and per
   quantitative claim in its text (the paper has no measured tables;
   see DESIGN.md's experiment index and EXPERIMENTS.md for the mapping
   and recorded results). Run with:

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- C1 C4   # selected sections
*)

open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts
open Dgc_core
open Dgc_workload
open Dgc_baselines

let say fmt = Format.printf (fmt ^^ "@.")

let section id title =
  say "";
  say "==================================================================";
  say "EXP-%s  %s" id title;
  say "=================================================================="

(* Aligned table printing. *)
let table header rows =
  let all = header :: rows in
  let cols = List.length header in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init cols width in
  let print_row row =
    say "  %s"
      (String.concat "  "
         (List.map2
            (fun w cell -> cell ^ String.make (w - String.length cell) ' ')
            widths row))
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let base_cfg =
  {
    Config.default with
    Config.delta = 3;
    threshold2 = 6;
    threshold_bump = 4;
    trace_interval = Sim_time.of_seconds 10.;
    trace_jitter = Sim_time.of_seconds 1.;
    trace_duration = Sim_time.zero;
    latency = Latency.Uniform (Sim_time.of_millis 1., Sim_time.of_millis 10.);
    oracle_checks = true;
  }

let sites n = List.init n Site_id.of_int
let b2s = function true -> "yes" | false -> "no"

(* Run until the oracle sees no garbage; return rounds used (or None). *)
let rounds_to_collect ?(max_rounds = 60) sim =
  let rec loop n =
    if Dgc_oracle.Oracle.garbage_count sim.Sim.eng = 0 then Some n
    else if n >= max_rounds then None
    else begin
      Sim.run_rounds sim 1;
      loop (n + 1)
    end
  in
  loop 0

let verdict_str = function
  | Some (v, _) -> Verdict.to_string v
  | None -> "(running)"

(* ---------------------------------------------------------------------- *)
(* F1..F6: the paper's figures as executable scenarios                     *)
(* ---------------------------------------------------------------------- *)

let exp_f1 () =
  section "F1" "Figure 1: local tracing vs the f-g cycle";
  let f = Scenario.fig1 ~cfg:base_cfg () in
  let sim = f.Scenario.f1_sim in
  let eng = sim.Sim.eng in
  Scenario.settle sim ~rounds:3;
  let alive o = Heap.mem (Engine.site eng (Oid.site o)).Site.heap o in
  table
    [ "object"; "role"; "alive after 3 local rounds" ]
    [
      [ "d"; "acyclic garbage"; b2s (alive f.Scenario.f1_d) ];
      [ "e"; "acyclic garbage"; b2s (alive f.Scenario.f1_e) ];
      [ "f"; "on the 2-site cycle"; b2s (alive f.Scenario.f1_f) ];
      [ "g"; "on the 2-site cycle"; b2s (alive f.Scenario.f1_g) ];
      [ "c"; "live"; b2s (alive f.Scenario.f1_c) ];
    ];
  Sim.start sim;
  let r = rounds_to_collect sim in
  say "back tracing collected the cycle after %s further rounds"
    (match r with Some n -> string_of_int n | None -> "(never!)");
  List.iter
    (fun (id, st) ->
      say "  trace %a: %s, %d msgs, participants %d" Trace_id.pp id
        (verdict_str st.Back_trace.ts_outcome)
        st.Back_trace.ts_msgs
        (Site_id.Set.cardinal st.Back_trace.ts_participants))
    (Back_trace.stats (Collector.back sim.Sim.col))

let exp_f2 () =
  section "F2" "Figure 2: insets of suspected outrefs";
  let f = Scenario.fig2 ~cfg:base_cfg () in
  let sim = f.Scenario.f2_sim in
  let eng = sim.Sim.eng in
  Scenario.settle sim ~rounds:8;
  let q = Oid.site f.Scenario.f2_a in
  (match Tables.find_outref (Engine.site eng q).Site.tables f.Scenario.f2_c with
  | Some o ->
      say "inset of outref c at Q = {%s}   (paper: {a, b})"
        (String.concat ", " (List.map Oid.to_string o.Ioref.or_inset))
  | None -> say "outref c missing!");
  let outcome = ref None in
  Back_trace.on_outcome (Collector.back sim.Sim.col) (fun _ v _ ->
      outcome := Some v);
  ignore (Collector.start_back_trace sim.Sim.col q f.Scenario.f2_c);
  Sim.run_for sim (Sim_time.of_seconds 5.);
  say "back trace from outref c: %s (finds all paths; paper §4.1)"
    (match !outcome with Some v -> Verdict.to_string v | None -> "(running)")

let exp_f3 () =
  section "F3" "Figure 3: a branching back trace returning Live";
  let f = Scenario.fig3 ~cfg:base_cfg () in
  let sim = f.Scenario.f3_sim in
  Scenario.settle sim ~rounds:4;
  (* Everything is live; artificially suspect the whole path except the
     root-side inref a, as in the paper's setup. *)
  let eng = sim.Sim.eng in
  Array.iter
    (fun st ->
      Tables.iter_inrefs st.Site.tables (fun ir ->
          if not (Oid.equal ir.Ioref.ir_target f.Scenario.f3_a) then
            List.iter
              (fun src ->
                Tables.set_source_dist st.Site.tables ir src.Ioref.src_site
                  ~dist:50)
              ir.Ioref.ir_sources))
    (Engine.sites eng);
  Collector.force_local_trace_all sim.Sim.col;
  let outcome = ref None in
  Back_trace.on_outcome (Collector.back sim.Sim.col) (fun _ v _ ->
      outcome := Some v);
  ignore
    (Collector.start_back_trace sim.Sim.col (Oid.site f.Scenario.f3_c)
       f.Scenario.f3_d);
  Sim.run_for sim (Sim_time.of_seconds 5.);
  say "trace from d branches at inref c to P and Q; outcome: %s"
    (match !outcome with Some v -> Verdict.to_string v | None -> "(running)");
  say "(one branch dies on the visited mark, the other reaches the root)"

let exp_f4 () =
  section "F4" "Figure 4: why outset computation needs SCCs";
  let f = Scenario.fig4 ~cfg:base_cfg () in
  let eng = f.Scenario.f4_sim.Sim.eng in
  let q = Engine.site eng (Oid.site f.Scenario.f4_a) in
  Array.iter
    (fun st ->
      Tables.iter_inrefs st.Site.tables (fun ir ->
          List.iter
            (fun src ->
                Tables.set_source_dist st.Site.tables ir src.Ioref.src_site
                  ~dist:50)
            ir.Ioref.ir_sources))
    (Engine.sites eng);
  let inp = Local_trace.input_of_site eng q in
  let outset_of mode r =
    let oc = Local_trace.compute ~mode inp in
    match
      Array.find_index
        (fun ir -> Oid.equal ir.Ioref.ir_target r)
        oc.Local_trace.i_irs
    with
    | Some k ->
        String.concat ","
          (List.map Oid.to_string oc.Local_trace.i_outsets.(k))
    | None -> "?"
  in
  table
    [ "mode"; "outset(a)"; "outset(b)" ]
    [
      [
        "bottom-up (SCC, §5.2)";
        outset_of Local_trace.Bottom_up f.Scenario.f4_a;
        outset_of Local_trace.Bottom_up f.Scenario.f4_b;
      ];
      [
        "independent (§5.1)";
        outset_of Local_trace.Independent f.Scenario.f4_a;
        outset_of Local_trace.Independent f.Scenario.f4_b;
      ];
      [
        "naive first cut (broken)";
        outset_of Local_trace.Naive_bottom_up f.Scenario.f4_a;
        outset_of Local_trace.Naive_bottom_up f.Scenario.f4_b;
      ];
    ];
  say "the naive mode loses c from b's outset across the back edge z->x"

let exp_f5_f6 () =
  section "F5/F6" "Figures 5-6: the mutation race and the barriers";
  let run name cfg use_fig6 =
    let _, outcome, violation = Scenario.fig5_race ~use_fig6 ~cfg () in
    [
      name;
      (match outcome with Some v -> Verdict.to_string v | None -> "timeout");
      (match violation with Some _ -> "UNSAFE (oracle caught it)" | None -> "safe");
    ]
  in
  table
    [ "configuration"; "trace outcome"; "safety" ]
    [
      run "full machinery (fig 5)" base_cfg false;
      run "full machinery (fig 6)" base_cfg true;
      run "no transfer barrier"
        { base_cfg with Config.enable_transfer_barrier = false }
        false;
      run "no transfer barrier (fig 6)"
        { base_cfg with Config.enable_transfer_barrier = false }
        true;
    ];
  say "the correct outcome is Live: the mutator re-anchored z before";
  say "cutting the old path; without the barrier the trace misses the";
  say "new path and wrongly kills the live inref g"

(* ---------------------------------------------------------------------- *)
(* C1: message complexity 2E + N (§4.6)                                    *)
(* ---------------------------------------------------------------------- *)

let exp_c1 () =
  section "C1" "Message complexity of a back trace (paper: 2E + N)";
  let rows =
    List.concat_map
      (fun span ->
        List.map
          (fun per_site ->
            let cfg = { base_cfg with Config.n_sites = span } in
            let sim = Sim.make ~cfg () in
            ignore
              (Graph_gen.ring sim.Sim.eng ~sites:(sites span) ~per_site
                 ~rooted:false);
            Sim.start sim;
            ignore (rounds_to_collect sim);
            (* Pick the trace that confirmed the garbage. *)
            let garbage_trace =
              List.find_opt
                (fun (_, st) ->
                  match st.Back_trace.ts_outcome with
                  | Some (Verdict.Garbage, _) -> true
                  | _ -> false)
                (Back_trace.stats (Collector.back sim.Sim.col))
            in
            match garbage_trace with
            | Some (_, st) ->
                let e = st.Back_trace.ts_calls in
                let n = Site_id.Set.cardinal st.Back_trace.ts_participants in
                let latency =
                  match st.Back_trace.ts_outcome with
                  | Some (_, at) ->
                      Printf.sprintf "%.0fms"
                        (1000.
                        *. (Sim_time.to_seconds at
                           -. Sim_time.to_seconds st.Back_trace.ts_started))
                  | None -> "-"
                in
                [
                  string_of_int span;
                  string_of_int per_site;
                  string_of_int span (* inter-site refs on the ring *);
                  string_of_int e;
                  string_of_int n;
                  string_of_int st.Back_trace.ts_msgs;
                  string_of_int ((2 * e) + n);
                  latency;
                ]
            | None ->
                [ string_of_int span; string_of_int per_site; "-"; "-"; "-";
                  "-"; "-"; "-" ])
          [ 1; 3 ])
      [ 2; 3; 4; 6; 8 ]
  in
  table
    [ "span"; "objs/site"; "ring E"; "calls E'"; "sites N"; "msgs"; "2E'+N";
      "latency" ]
    rows;
  say "msgs <= 2E'+N: each call pairs with a reply or times out, plus";
  say "one report per participant (the initiator is informed locally);";
  say "a whole trace takes milliseconds against minute-scale trace";
  say "intervals (§4.7)"

(* ---------------------------------------------------------------------- *)
(* C2: the distance-growth theorem (§3)                                    *)
(* ---------------------------------------------------------------------- *)

let exp_c2 () =
  section "C2" "Distance heuristic: garbage distances grow without bound";
  let spans = [ 2; 3; 5; 8 ] in
  let per_round =
    List.map
      (fun span ->
        let cfg = { base_cfg with Config.n_sites = span } in
        let sim = Sim.make ~cfg () in
        let eng = sim.Sim.eng in
        let objs = Graph_gen.ring eng ~sites:(sites span) ~per_site:2 ~rooted:false in
        let min_dist () =
          List.fold_left
            (fun acc o ->
              match Tables.find_inref (Engine.site eng (Oid.site o)).Site.tables o with
              | Some ir -> min acc (Ioref.inref_dist ir)
              | None -> acc)
            max_int objs
        in
        List.init 8 (fun r ->
            Scenario.settle sim ~rounds:1;
            (r + 1, min_dist ())))
      spans
  in
  table
    ("round" :: List.map (fun s -> Printf.sprintf "span %d" s) spans)
    (List.init 8 (fun r ->
         string_of_int (r + 1)
         :: List.map
              (fun col -> string_of_int (snd (List.nth col r)))
              per_round));
  say "theorem check: after R rounds every min distance is >= R"

(* ---------------------------------------------------------------------- *)
(* C3: the back-threshold policy (§4.3)                                    *)
(* ---------------------------------------------------------------------- *)

let exp_c3 () =
  section "C3" "Back threshold Δ2: abortive traces vs collection delay";
  (* Workload: a 3-site garbage ring plus a live deep structure whose
     iorefs sit at distance 5 — permanently suspected live objects. *)
  let rows =
    List.map
      (fun threshold2 ->
        let cfg = { base_cfg with Config.n_sites = 6; threshold2 } in
        let sim = Sim.make ~cfg () in
        let eng = sim.Sim.eng in
        ignore
          (Graph_gen.ring eng
             ~sites:[ Site_id.of_int 0; Site_id.of_int 1; Site_id.of_int 2 ]
             ~per_site:2 ~rooted:false);
        (* live chain 5 hops deep ending in a 2-site live cycle *)
        ignore
          (Graph_gen.chain eng
             ~sites:
               [
                 Site_id.of_int 0;
                 Site_id.of_int 1;
                 Site_id.of_int 2;
                 Site_id.of_int 3;
                 Site_id.of_int 4;
                 Site_id.of_int 5;
               ]
             ~per_site:1 ~rooted:true);
        Sim.start sim;
        let r = rounds_to_collect ~max_rounds:80 sim in
        Sim.run_rounds sim 10;
        let m = Engine.metrics eng in
        [
          string_of_int threshold2;
          (match r with Some n -> string_of_int n | None -> ">80");
          string_of_int (Metrics.get m "back.traces_started");
          string_of_int (Metrics.get m "back.outcome_live");
          string_of_int (Metrics.get m "back.outcome_garbage");
          string_of_int (Metrics.get m "back.msgs");
        ])
      [ 3; 4; 6; 8; 12 ]
  in
  table
    [ "Δ2"; "rounds to collect"; "traces"; "live verdicts"; "garbage"; "msgs" ]
    rows;
  say "low Δ2 fires early, abortive traces on live suspects; high Δ2";
  say "delays collection; threshold bumping silences live suspects";
  say "after a few attempts in every configuration"

(* ---------------------------------------------------------------------- *)
(* C4: inset computation cost (§5.1 vs §5.2)                                *)
(* ---------------------------------------------------------------------- *)

let build_suspect_graph ~n_objects ~n_inrefs ~shape =
  let cfg = { base_cfg with Config.n_sites = 3 } in
  let eng = Engine.create cfg in
  let q = Engine.site eng (Site_id.of_int 1) in
  let objs = Array.init n_objects (fun _ -> Heap.alloc q.Site.heap) in
  (match shape with
  | `Chain ->
      Array.iteri
        (fun i o ->
          if i + 1 < n_objects then
            Heap.add_field q.Site.heap ~obj:o ~target:objs.(i + 1))
        objs
  | `Random ->
      let rng = Rng.create ~seed:5 in
      for _ = 1 to n_objects * 2 do
        let a = objs.(Rng.int rng n_objects) in
        let b = objs.(Rng.int rng n_objects) in
        Heap.add_field q.Site.heap ~obj:a ~target:b
      done
  | `Braid k ->
      (* A chain where node i also points at portal (i mod k); each
         portal holds its own remote reference. Suffix outsets repeat,
         so the same unions recur — the memoization workload. *)
      let portals =
        Array.init k (fun j ->
            let p = Heap.alloc q.Site.heap in
            let r = Builder.obj eng (Site_id.of_int 2) in
            Builder.link eng ~src:p ~dst:r;
            ignore j;
            p)
      in
      Array.iteri
        (fun i o ->
          if i + 1 < n_objects then
            Heap.add_field q.Site.heap ~obj:o ~target:objs.(i + 1);
          Heap.add_field q.Site.heap ~obj:o ~target:portals.(i mod k))
        objs);
  let remote = Builder.obj eng (Site_id.of_int 2) in
  Builder.link eng ~src:objs.(n_objects - 1) ~dst:remote;
  for i = 0 to n_inrefs - 1 do
    let target = objs.(i * (n_objects / n_inrefs)) in
    let holder = Builder.obj eng (Site_id.of_int 0) in
    Builder.link eng ~src:holder ~dst:target;
    Builder.set_source_distance eng ~inref:target ~src:(Site_id.of_int 0) 50
  done;
  Local_trace.input_of_site eng q

let exp_c4 () =
  section "C4" "Inset computation: §5.2 bottom-up vs §5.1 independent";
  let shapes =
    [
      ("chain n=400 inrefs=8", build_suspect_graph ~n_objects:400 ~n_inrefs:8 ~shape:`Chain);
      ("chain n=400 inrefs=40", build_suspect_graph ~n_objects:400 ~n_inrefs:40 ~shape:`Chain);
      ("rand n=400 inrefs=8", build_suspect_graph ~n_objects:400 ~n_inrefs:8 ~shape:`Random);
      ("rand n=400 inrefs=40", build_suspect_graph ~n_objects:400 ~n_inrefs:40 ~shape:`Random);
    ]
  in
  let rows =
    List.map
      (fun (name, inp) ->
        let bu = (Local_trace.compute ~mode:Local_trace.Bottom_up inp).Local_trace.ot_stats in
        let ind =
          (Local_trace.compute ~mode:Local_trace.Independent inp).Local_trace.ot_stats
        in
        [
          name;
          string_of_int bu.Local_trace.suspect_visits;
          string_of_int ind.Local_trace.suspect_visits;
          Printf.sprintf "%.1fx"
            (float_of_int ind.Local_trace.suspect_visits
            /. float_of_int (max 1 bu.Local_trace.suspect_visits));
          string_of_int bu.Local_trace.memo_hits;
        ])
      shapes
  in
  table
    [ "shape"; "visits (bottom-up)"; "visits (independent)"; "ratio"; "memo hits" ]
    rows;
  say "independent tracing rescans shared structure once per suspected";
  say "inref — the paper's O(n*m); bottom-up stays linear"

(* ---------------------------------------------------------------------- *)
(* C5: outset sharing and memoized unions (§5.2)                            *)
(* ---------------------------------------------------------------------- *)

let exp_c5 () =
  section "C5" "Outset sharing: distinct outsets << suspected objects";
  let rows =
    List.map
      (fun (name, inp) ->
        let st = (Local_trace.compute ~mode:Local_trace.Bottom_up inp).Local_trace.ot_stats in
        [
          name;
          string_of_int st.Local_trace.suspect_visits;
          string_of_int st.Local_trace.distinct_outsets;
          string_of_int st.Local_trace.union_calls;
          string_of_int st.Local_trace.memo_hits;
          Printf.sprintf "%.0f%%"
            (100.
            *. float_of_int st.Local_trace.memo_hits
            /. float_of_int (max 1 st.Local_trace.union_calls));
        ])
      [
        ("chain 500/10", build_suspect_graph ~n_objects:500 ~n_inrefs:10 ~shape:`Chain);
        ("chain 2000/40", build_suspect_graph ~n_objects:2000 ~n_inrefs:40 ~shape:`Chain);
        ("random 500/10", build_suspect_graph ~n_objects:500 ~n_inrefs:10 ~shape:`Random);
        ("random 2000/40", build_suspect_graph ~n_objects:2000 ~n_inrefs:40 ~shape:`Random);
        ("braid-4 500/10", build_suspect_graph ~n_objects:500 ~n_inrefs:10 ~shape:(`Braid 4));
        ("braid-8 2000/40", build_suspect_graph ~n_objects:2000 ~n_inrefs:40 ~shape:(`Braid 8));
      ]
  in
  table
    [ "shape n/inrefs"; "suspects"; "distinct outsets"; "unions"; "memo hits"; "hit rate" ]
    rows;
  (* memoization ablation: the union sequence a suspect-phase run
     would issue on a braid, memo on vs off *)
  let run_store ~memoize =
    let st = Outset_store.create ~memoize () in
    let singletons =
      Array.init 8 (fun i ->
          Outset_store.singleton st
            (Oid.make ~site:(Site_id.of_int 2) ~index:i))
    in
    ignore
      (List.fold_left
         (fun acc i -> Outset_store.union st acc singletons.(i mod 8))
         (Outset_store.empty st) (List.init 64 Fun.id));
    let s = Outset_store.stats st in
    [
      (if memoize then "on" else "off");
      string_of_int s.Outset_store.union_calls;
      string_of_int s.Outset_store.memo_hits;
      string_of_int (s.Outset_store.union_calls - s.Outset_store.memo_hits);
      string_of_int s.Outset_store.distinct;
    ]
  in
  say "";
  say "memoized-union ablation (64 unions over a braid's 8 portals):";
  table
    [ "memo"; "unions"; "memo hits"; "merges"; "distinct outsets" ]
    [ run_store ~memoize:true; run_store ~memoize:false ]

(* ---------------------------------------------------------------------- *)
(* C6: space for back information (§5.2, §8)                                *)
(* ---------------------------------------------------------------------- *)

let exp_c6 () =
  section "C6" "Space: retained insets vs the ni*no worst case";
  let measure sim_builder name =
    let sim = Sim.make ~cfg:{ base_cfg with Config.n_sites = 6 } () in
    sim_builder sim;
    Scenario.settle sim ~rounds:8;
    let eng = sim.Sim.eng in
    let ni = ref 0 and no = ref 0 and entries = ref 0 in
    Array.iter
      (fun st ->
        Tables.iter_inrefs st.Site.tables (fun ir ->
            if ir.Ioref.ir_suspected then incr ni);
        Tables.iter_outrefs st.Site.tables (fun o ->
            if o.Ioref.or_suspected then begin
              incr no;
              entries := !entries + List.length o.Ioref.or_inset
            end))
      (Engine.sites eng);
    [
      name;
      string_of_int !ni;
      string_of_int !no;
      string_of_int !entries;
      string_of_int (!ni * !no);
    ]
  in
  let ring6 sim =
    ignore (Graph_gen.ring sim.Sim.eng ~sites:(sites 6) ~per_site:3 ~rooted:false)
  in
  let hyper sim =
    ignore
      (Graph_gen.hypertext sim.Sim.eng ~rng:(Rng.create ~seed:3)
         ~docs_per_site:3 ~pages_per_doc:4 ~cross_links:20 ~rooted_frac:0.3)
  in
  let cliq sim =
    ignore (Graph_gen.clique sim.Sim.eng ~sites:(sites 5) ~rooted:false)
  in
  table
    [ "workload"; "susp inrefs ni"; "susp outrefs no"; "inset entries"; "ni*no bound" ]
    [ measure ring6 "6-site ring"; measure hyper "hypertext"; measure cliq "5-clique" ]

(* ---------------------------------------------------------------------- *)
(* C7: locality and fault isolation (§1, §7)                                *)
(* ---------------------------------------------------------------------- *)

let exp_c7 () =
  section "C7" "Locality: a crash delays only the garbage it can reach";
  let cfg = { base_cfg with Config.n_sites = 5 } in
  let sim = Sim.make ~cfg () in
  let eng = sim.Sim.eng in
  ignore
    (Graph_gen.ring eng ~sites:[ Site_id.of_int 0; Site_id.of_int 1 ]
       ~per_site:2 ~rooted:false);
  ignore
    (Graph_gen.ring eng ~sites:[ Site_id.of_int 2; Site_id.of_int 3 ]
       ~per_site:2 ~rooted:false);
  Engine.crash eng (Site_id.of_int 3);
  Engine.crash eng (Site_id.of_int 4);
  Sim.start sim;
  Sim.run_rounds sim 20;
  let left ss =
    List.fold_left
      (fun acc s -> acc + Heap.object_count (Engine.site eng s).Site.heap)
      0 ss
  in
  table
    [ "cycle"; "involves crashed site?"; "objects left after 20 rounds" ]
    [
      [ "sites 0-1"; "no"; string_of_int (left [ Site_id.of_int 0; Site_id.of_int 1 ]) ];
      [ "sites 2-3"; "yes (3 down)"; string_of_int (left [ Site_id.of_int 2; Site_id.of_int 3 ]) ];
    ];
  Engine.recover eng (Site_id.of_int 3);
  Engine.recover eng (Site_id.of_int 4);
  let r = rounds_to_collect sim in
  say "after recovery the remaining cycle collects in %s rounds"
    (match r with Some n -> string_of_int n | None -> "(never)")

(* ---------------------------------------------------------------------- *)
(* C8: multiple concurrent back traces (§4.7)                               *)
(* ---------------------------------------------------------------------- *)

let exp_c8 () =
  section "C8" "Concurrent back traces on one cycle";
  let cfg = { base_cfg with Config.n_sites = 4 } in
  let sim = Sim.make ~cfg () in
  let eng = sim.Sim.eng in
  let objs = Graph_gen.ring eng ~sites:(sites 4) ~per_site:1 ~rooted:false in
  Scenario.settle sim ~rounds:8;
  let started = ref 0 in
  List.iter
    (fun o ->
      List.iter
        (fun site ->
          match Tables.find_outref (Engine.site eng site).Site.tables o with
          | Some _ ->
              if Collector.start_back_trace sim.Sim.col site o <> None then
                incr started
          | None -> ())
        (sites 4))
    objs;
  Sim.run_for sim (Sim_time.of_seconds 30.);
  Collector.force_local_trace_all sim.Sim.col;
  Sim.run_for sim (Sim_time.of_seconds 10.);
  Collector.force_local_trace_all sim.Sim.col;
  Sim.run_for sim (Sim_time.of_seconds 10.);
  Collector.force_local_trace_all sim.Sim.col;
  let garbage = List.length
      (List.filter
         (fun (_, st) ->
           match st.Back_trace.ts_outcome with
           | Some (Verdict.Garbage, _) -> true
           | _ -> false)
         (Back_trace.stats (Collector.back sim.Sim.col)))
  in
  say "traces started simultaneously: %d" !started;
  say "garbage verdicts: %d (duplicates die on visited marks, §4.7)" garbage;
  say "cycle collected: %b" (Dgc_oracle.Oracle.garbage_count eng = 0)

(* ---------------------------------------------------------------------- *)
(* C9: message loss (§4.6)                                                  *)
(* ---------------------------------------------------------------------- *)

let exp_c9 () =
  section "C9" "Message loss: timeouts read as Live, later rounds finish";
  let rows =
    List.map
      (fun drop ->
        let cfg = { base_cfg with Config.n_sites = 3; ext_drop = drop; seed = 5 } in
        let sim = Sim.make ~cfg () in
        ignore (Graph_gen.ring sim.Sim.eng ~sites:(sites 3) ~per_site:2 ~rooted:false);
        Sim.start sim;
        let r = rounds_to_collect ~max_rounds:100 sim in
        let m = Engine.metrics sim.Sim.eng in
        [
          Printf.sprintf "%.0f%%" (drop *. 100.);
          (match r with Some n -> string_of_int n | None -> ">100");
          string_of_int (Metrics.get m "back.traces_started");
          string_of_int (Metrics.get m "back.call_timeout");
          string_of_int (Metrics.get m "msg.dropped.lossy");
        ])
      [ 0.0; 0.1; 0.3; 0.5 ]
  in
  table
    [ "drop rate"; "rounds to collect"; "traces"; "call timeouts"; "msgs dropped" ]
    rows

(* ---------------------------------------------------------------------- *)
(* C10: barrier ablations (§6)                                              *)
(* ---------------------------------------------------------------------- *)

let exp_c10 () =
  section "C10" "Ablations: every §6 mechanism is load-bearing";
  let run name cfg =
    let _, outcome, violation = Scenario.fig5_race ~cfg () in
    [
      name;
      (match outcome with Some v -> Verdict.to_string v | None -> "timeout");
      (match violation with
      | Some _ -> "UNSAFE — oracle caught a live free"
      | None -> "safe");
    ]
  in
  table
    [ "configuration"; "race outcome"; "result" ]
    [
      run "all mechanisms on" base_cfg;
      run "transfer barrier off"
        { base_cfg with Config.enable_transfer_barrier = false };
      run "transfer barrier off, clean rule off"
        {
          base_cfg with
          Config.enable_transfer_barrier = false;
          enable_clean_rule = false;
        };
    ];
  (* The clean rule alone, demonstrated mid-trace. *)
  let f = Scenario.fig5 ~cfg:base_cfg () in
  let sim = f.Scenario.f5_sim in
  Scenario.settle sim ~rounds:9;
  let outcome = ref None in
  Back_trace.on_outcome (Collector.back sim.Sim.col) (fun _ v _ -> outcome := Some v);
  ignore (Collector.start_back_trace sim.Sim.col f.Scenario.f5_q f.Scenario.f5_g);
  Engine.schedule sim.Sim.eng ~delay:(Sim_time.of_millis 5.) (fun () ->
      (Engine.site sim.Sim.eng f.Scenario.f5_q).Site.hooks.Site.h_ref_arrived
        f.Scenario.f5_f);
  Sim.run_for sim (Sim_time.of_seconds 2.);
  say "clean rule: cleaning an ioref under an active frame forces %s"
    (match !outcome with Some v -> Verdict.to_string v | None -> "(timeout)")

(* ---------------------------------------------------------------------- *)
(* C11: completeness after churn                                            *)
(* ---------------------------------------------------------------------- *)

let exp_c11 () =
  section "C11" "Completeness: all garbage goes once mutation stops";
  let rows =
    List.map
      (fun seed ->
        let cfg =
          { base_cfg with Config.n_sites = 4; seed; trace_duration = Sim_time.of_seconds 1. }
        in
        let sim = Sim.make ~cfg () in
        let eng = sim.Sim.eng in
        ignore
          (Graph_gen.random_graph eng ~rng:(Rng.create ~seed:(seed + 1))
             ~objects_per_site:12 ~out_degree:1.5 ~remote_frac:0.3
             ~root_frac:0.1);
        Array.iter
          (fun s ->
            if Heap.persistent_roots s.Site.heap = [] then
              ignore (Builder.root_obj eng s.Site.id))
          (Engine.sites eng);
        let churn =
          Churn.start sim ~rng:(Rng.create ~seed:(seed + 2)) ~agents:3
            ~mean_op_gap:(Sim_time.of_millis 400.)
        in
        Sim.start sim;
        Sim.run_for sim (Sim_time.of_minutes 3.);
        Churn.stop churn;
        Sim.run_for sim (Sim_time.of_seconds 30.);
        let garbage_before = Dgc_oracle.Oracle.garbage_count eng in
        let r = rounds_to_collect ~max_rounds:60 sim in
        [
          string_of_int seed;
          string_of_int (Churn.ops_done churn);
          string_of_int garbage_before;
          (match r with Some n -> string_of_int n | None -> ">60");
        ])
      [ 1; 2; 3; 4 ]
  in
  table [ "seed"; "mutator ops"; "garbage at stop"; "rounds to empty" ] rows

(* ---------------------------------------------------------------------- *)
(* C12: cost comparison against the §7 baselines                            *)
(* ---------------------------------------------------------------------- *)

let exp_c12 () =
  section "C12" "Baselines on one workload (3-site cycle, site 3 crashed)";
  let build eng =
    ignore (Graph_gen.ring eng ~sites:(sites 3) ~per_site:2 ~rooted:false);
    ignore (Graph_gen.ring eng ~sites:(sites 3) ~per_site:1 ~rooted:true);
    Engine.crash eng (Site_id.of_int 3)
  in
  let cfg = { base_cfg with Config.n_sites = 4 } in
  let minutes = Sim_time.of_minutes 20. in
  let row_of name eng extra =
    let m = Engine.metrics eng in
    [
      name;
      b2s (Dgc_oracle.Oracle.garbage_count eng = 0);
      string_of_int (Metrics.get m "msg.total");
      string_of_int (Metrics.get m "msg.bytes");
      extra;
    ]
  in
  let back_row =
    let sim = Sim.make ~cfg () in
    build sim.Sim.eng;
    Sim.start sim;
    Sim.run_for sim minutes;
    let m = Engine.metrics sim.Sim.eng in
    row_of "back tracing" sim.Sim.eng
      (Printf.sprintf "back msgs %d" (Metrics.get m "back.msgs"))
  in
  let global_row =
    let eng = Engine.create cfg in
    let gt = Global_trace.install eng in
    build eng;
    Engine.start_gc_schedule eng;
    Global_trace.collect gt ~on_done:(fun ~freed:_ ~rounds:_ -> ()) ();
    Engine.run_for eng minutes;
    row_of "global trace" eng
      (if Global_trace.running gt then "STALLED on the crash" else "finished")
  in
  let hughes_row =
    let eng = Engine.create cfg in
    build eng;
    let h = Hughes.install eng ~depth:(Dgc_oracle.Oracle.max_distance eng) in
    Engine.start_gc_schedule eng;
    for _ = 1 to 60 do
      Engine.run_for eng (Sim_time.of_seconds 20.);
      Hughes.run_threshold_round h ()
    done;
    row_of "hughes" eng
      (Printf.sprintf "threshold stuck at %.0f" (Hughes.threshold h))
  in
  let group_row =
    let eng = Engine.create cfg in
    let g = Group_trace.install eng ~max_group:8 in
    build eng;
    Engine.start_gc_schedule eng;
    Engine.run_for eng minutes;
    row_of "group trace" eng
      (Printf.sprintf "groups %d, size %d" (Group_trace.groups_formed g)
         (Group_trace.last_group_size g))
  in
  let migration_row =
    let eng = Engine.create cfg in
    let m = Migration.install eng in
    build eng;
    Engine.start_gc_schedule eng;
    Engine.run_for eng minutes;
    row_of "migration" eng
      (Printf.sprintf "%d moves, %d bytes" (Migration.migrations m)
         (Migration.bytes_moved m))
  in
  table
    [ "collector"; "collected"; "msgs"; "bytes"; "notes" ]
    [ back_row; global_row; hughes_row; group_row; migration_row ];
  (* Every collector against the oracle: the comparison hypertext over
     seeds 1-40, uniform latency, without loss and with 20% of
     collector messages dropped (Hughes refuses loss). *)
  say "";
  say "Hypertext, seeds 1-40, 300 s each, oracle at every sweep:";
  let seeds = List.init 40 (fun i -> i + 1) in
  let rows =
    List.concat_map
      (fun c ->
        List.filter_map
          (fun ext_drop ->
            if c = Comparison.Hughes && ext_drop > 0. then None
            else
              let outs =
                List.map
                  (fun seed ->
                    Comparison.hypertext c (Comparison.config ~seed ~ext_drop))
                  seeds
              in
              let sum f = List.fold_left (fun n o -> n + f o) 0 outs in
              let collected = sum (fun o -> o.Comparison.collected) in
              let msgs = sum (fun o -> o.Comparison.msgs) in
              Some
                [
                  Comparison.name c;
                  Printf.sprintf "%.1f" ext_drop;
                  Printf.sprintf "%d/%d" collected
                    (sum (fun o -> o.Comparison.cycles));
                  (if collected = 0 then "-"
                   else Printf.sprintf "%.0f" (float msgs /. float collected));
                  string_of_int (sum (fun o -> o.Comparison.lost));
                ])
          [ 0.; 0.2 ])
      Comparison.collectors
  in
  table
    [ "collector"; "ext_drop"; "cycles collected"; "msgs/cycle"; "live lost" ]
    rows

(* ---------------------------------------------------------------------- *)
(* C13: deferred / piggybacked messages (§4.7)                             *)
(* ---------------------------------------------------------------------- *)

let exp_c13 () =
  section "C13" "Deferral: piggybacked back-trace traffic (§4.7)";
  let rows =
    List.map
      (fun defer_ms ->
        let cfg =
          {
            base_cfg with
            Config.n_sites = 4;
            defer_interval = Sim_time.of_millis defer_ms;
            back_call_timeout = Sim_time.of_seconds 20.;
            seed = 3;
          }
        in
        let sim = Sim.make ~cfg () in
        ignore
          (Graph_gen.clique sim.Sim.eng ~sites:(sites 4) ~rooted:false);
        Sim.start sim;
        let r = rounds_to_collect ~max_rounds:80 sim in
        let m = Engine.metrics sim.Sim.eng in
        [
          (if defer_ms = 0. then "eager" else Printf.sprintf "%.0fms" defer_ms);
          (match r with Some n -> string_of_int n | None -> ">80");
          string_of_int (Metrics.get m "msg.total");
          string_of_int (Metrics.get m "msg.batches");
          string_of_int (Metrics.get m "msg.back_call");
        ])
      [ 0.; 50.; 200.; 500. ]
  in
  table
    [ "defer"; "rounds to collect"; "wire msgs"; "batches"; "logical calls" ]
    rows;
  say "deferral trades trace latency (still well under a trace round)";
  say "for fewer wire messages — the paper's piggybacking argument"

(* ---------------------------------------------------------------------- *)
(* C14: scalability sweep                                                  *)
(* ---------------------------------------------------------------------- *)

let exp_c14 () =
  section "C14" "Scalability: hypertext webs over growing site counts";
  let rows =
    List.map
      (fun n ->
        let cfg = { base_cfg with Config.n_sites = n; seed = 17 } in
        let sim = Sim.make ~cfg () in
        let eng = sim.Sim.eng in
        let garbage =
          Graph_gen.hypertext eng ~rng:(Rng.create ~seed:18) ~docs_per_site:3
            ~pages_per_doc:4 ~cross_links:(n * 3) ~rooted_frac:0.4
        in
        Sim.start sim;
        let r = rounds_to_collect ~max_rounds:80 sim in
        let m = Engine.metrics eng in
        [
          string_of_int n;
          string_of_int (List.length garbage);
          (match r with Some k -> string_of_int k | None -> ">80");
          string_of_int (Metrics.get m "back.traces_started");
          string_of_int (Metrics.get m "back.msgs");
          string_of_int (Metrics.get m "msg.total");
        ])
      [ 4; 8; 16; 32 ]
  in
  table
    [ "sites"; "cyclic garbage"; "rounds"; "traces"; "back msgs"; "all msgs" ]
    rows;
  say "back-trace traffic scales with the garbage, not the system size"

(* ---------------------------------------------------------------------- *)
(* BENCH: the machine-readable artifact                                   *)
(* ---------------------------------------------------------------------- *)

(* Aggregates back-trace latency/size distributions and per-payload
   message counts over a few ring workloads into BENCH_backtrace.json
   (schema dgc.run/1), so numbers can be tracked across runs without
   scraping the tables above. Runs in every full invocation and alone
   as `main.exe BENCH` (the @bench-smoke alias). *)
let exp_bench () =
  section "BENCH" "Run artifact: back-trace latency and message traffic";
  let agg = Metrics.create () in
  let sim_secs = ref 0. in
  (* Cost-ledger totals accumulated across the ring runs; the per-cycle
     milli ratios are integer functions of the deterministic schedule,
     so they gate exactly like any other counter. *)
  let l_traces = ref 0
  and l_collected = ref 0
  and l_msgs = ref 0
  and l_bytes = ref 0
  and l_frames = ref 0
  and l_retries = ref 0 in
  List.iter
    (fun (span, per_site, seed) ->
      let cfg = { base_cfg with Config.n_sites = span; seed } in
      let sim = Sim.make ~cfg () in
      let eng = sim.Sim.eng in
      ignore
        (Graph_gen.ring eng ~sites:(sites span) ~per_site ~rooted:false);
      ignore (Graph_gen.ring eng ~sites:(sites span) ~per_site:1 ~rooted:true);
      Sim.start sim;
      ignore (rounds_to_collect ~max_rounds:40 sim);
      sim_secs := !sim_secs +. Sim_time.to_seconds (Engine.now eng);
      List.iter
        (fun (_, st) ->
          match st.Back_trace.ts_outcome with
          | None -> ()
          | Some (v, at) ->
              let ms =
                1000.
                *. (Sim_time.to_seconds at
                   -. Sim_time.to_seconds st.Back_trace.ts_started)
              in
              Metrics.hist_observe agg "back.latency_ms" ms;
              Metrics.hist_observe agg
                (Printf.sprintf "back.latency_ms{verdict=%s}"
                   (String.lowercase_ascii (Verdict.to_string v)))
                ms;
              Metrics.hist_observe agg "back.frames_per_trace"
                (float_of_int st.Back_trace.ts_frames);
              Metrics.hist_observe agg "back.msgs_per_trace"
                (float_of_int st.Back_trace.ts_msgs))
        (Back_trace.stats (Collector.back sim.Sim.col));
      (* Fold this run's message and back-trace counters in. *)
      List.iter
        (fun (k, v) ->
          if
            String.starts_with ~prefix:"msg." k
            || String.starts_with ~prefix:"back." k
          then Metrics.add agg k v)
        (Metrics.counters (Engine.metrics eng));
      let module L = Dgc_profile.Ledger in
      let r = L.rollup (Back_trace.ledger_rows (Collector.back sim.Sim.col)) in
      l_traces := !l_traces + r.L.r_traces;
      l_collected := !l_collected + r.L.r_collected;
      l_msgs := !l_msgs + r.L.r_msgs;
      l_bytes := !l_bytes + r.L.r_bytes;
      l_frames := !l_frames + r.L.r_frames;
      l_retries := !l_retries + r.L.r_retries)
    [ (2, 1, 11); (3, 2, 12); (4, 2, 13) ];
  Metrics.add agg "ledger.traces" !l_traces;
  Metrics.add agg "ledger.collected" !l_collected;
  Metrics.add agg "ledger.msgs" !l_msgs;
  Metrics.add agg "ledger.bytes" !l_bytes;
  Metrics.add agg "ledger.frames" !l_frames;
  Metrics.add agg "ledger.retries" !l_retries;
  if !l_collected > 0 then begin
    Metrics.add agg "ledger.msgs_per_cycle_milli"
      (1000 * !l_msgs / !l_collected);
    Metrics.add agg "ledger.bytes_per_cycle_milli"
      (1000 * !l_bytes / !l_collected)
  end;
  say
    "  cost ledger: %d traces (%d collected), %d msgs / %d bytes / %d frames"
    !l_traces !l_collected !l_msgs !l_bytes !l_frames;
  let art =
    Dgc_telemetry.Run_artifact.make ~name:"backtrace-bench"
      ~sim_seconds:!sim_secs agg
  in
  let path = "BENCH_backtrace.json" in
  Dgc_telemetry.Json.write_file ~path art;
  (match
     Dgc_telemetry.Run_artifact.validate
       ~require_hists:[ "back.latency_ms"; "back.frames_per_trace" ]
       ~require_counter_prefixes:[ "msg."; "back."; "ledger." ]
       art
   with
  | Ok () -> say "wrote %s (shape ok)" path
  | Error e -> Fmt.failwith "BENCH artifact failed validation: %s" e);
  List.iter
    (fun name ->
      match Metrics.hist_stats agg name with
      | Some h ->
          say "  %-34s n=%-4d p50=%-8.3g p95=%-8.3g p99=%-8.3g max=%.3g" name
            h.Metrics.n h.Metrics.p50 h.Metrics.p95 h.Metrics.p99 h.Metrics.max
      | None -> ())
    [ "back.latency_ms"; "back.frames_per_trace"; "back.msgs_per_trace" ]

(* ---------------------------------------------------------------------- *)

let all_sections =
  [
    ("F1", exp_f1);
    ("F2", exp_f2);
    ("F3", exp_f3);
    ("F4", exp_f4);
    ("F5", exp_f5_f6);
    ("C1", exp_c1);
    ("C2", exp_c2);
    ("C3", exp_c3);
    ("C4", exp_c4);
    ("C5", exp_c5);
    ("C6", exp_c6);
    ("C7", exp_c7);
    ("C8", exp_c8);
    ("C9", exp_c9);
    ("C10", exp_c10);
    ("C11", exp_c11);
    ("C12", exp_c12);
    ("C13", exp_c13);
    ("C14", exp_c14);
    ("BENCH", exp_bench);
  ]

let () =
  let wanted =
    match Array.to_list Sys.argv with [] | [ _ ] -> None | _ :: l -> Some l
  in
  List.iter
    (fun (id, f) ->
      match wanted with
      | Some l when not (List.mem id l) -> ()
      | _ -> f ())
    all_sections;
  say "";
  say "done."
