(* Golden outcomes for the local trace.

   [Local_trace.compute] is pure, and nothing in this repo is allowed
   to change what it computes silently: the hot paths may be rewritten
   for speed, but the outcome — dead set, out/in results, and the
   cost-model stats — must stay byte-identical. This test pins the
   outcomes of figs 1-6 under all three modes by digesting the
   marshalled value (without sharing, and with each oid mirrored as a
   {site; index} record, so only the abstract value matters, not its
   in-memory shape).

   If a deliberate semantic change shifts these, regenerate with

     GOLDEN_DUMP=1 dune exec test/test_golden_trace.exe

   and paste the printed tables over [expected], [expected_runs],
   [expected_reuse] and [expected_windowed].

   The second table pins whole runs: each figure scenario runs 6 trace
   rounds under the [dgc-sim] scenario config, and the digest of its
   rendered dgc.run/1 artifact (every counter, histogram summary and
   series bucket) must not move when the engine is refactored. Those
   runs must also hit the sites' root-closure memos, or the pins would
   not cover the memoized clean phase. *)

open Dgc_simcore
open Dgc_rts
open Dgc_core
open Dgc_workload
module Tel = Dgc_telemetry

let cfg_atomic =
  {
    Config.default with
    Config.delta = 3;
    threshold2 = 6;
    trace_duration = Sim_time.zero;
  }

let suspect_everything eng =
  Array.iter
    (fun s ->
      Tables.iter_inrefs s.Site.tables (fun ir ->
          List.iter
            (fun src ->
              Tables.set_source_dist s.Site.tables ir src.Ioref.src_site
                ~dist:50)
            ir.Ioref.ir_sources))
    (Engine.sites eng)

let figs : (string * (Config.t -> Sim.t)) list =
  [
    ("fig1", fun cfg -> (Scenario.fig1 ~cfg ()).Scenario.f1_sim);
    ("fig2", fun cfg -> (Scenario.fig2 ~cfg ()).Scenario.f2_sim);
    ("fig3", fun cfg -> (Scenario.fig3 ~cfg ()).Scenario.f3_sim);
    ("fig4", fun cfg -> (Scenario.fig4 ~cfg ()).Scenario.f4_sim);
    ("fig5", fun cfg -> (Scenario.fig5 ~cfg ()).Scenario.f5_sim);
    ("fig6", fun cfg -> (fst (Scenario.fig6 ~cfg ())).Scenario.f5_sim);
  ]

let modes =
  [
    ("bottom_up", Local_trace.Bottom_up);
    ("independent", Local_trace.Independent);
    ("naive", Local_trace.Naive_bottom_up);
  ]

(* What is marshalled: the outcome with every oid spelled as a
   [{site; index}] record. Marshal bytes follow the in-memory
   representation, and [Oid.t] is a packed int, so digesting the
   outcome itself would tie the pins to the representation; the
   mirror keeps them on the abstract value. It spells the outcome as
   lists of per-ioref records, the layout the pins were recorded with,
   whatever arrays the outcome holds, and [m_oid] in place of [Oid.t];
   its fields are only ever marshalled, never read. *)
type m_oid = { site : int; index : int } [@@warning "-69"]

type m_out = {
  m_o_ref : m_oid;
  m_o_dist : int;
  m_o_suspected : bool;
  m_o_removed : bool;
  m_o_inset : m_oid list;
}
[@@warning "-69"]

type m_in = { m_i_ref : m_oid; m_i_suspected : bool; m_i_outset : m_oid list }
[@@warning "-69"]

type m_outcome = {
  m_site : int;
  m_dead : int list;
  m_out_results : m_out list;
  m_in_results : m_in list;
  m_stats : Local_trace.stats;
}
[@@warning "-69"]

let m_oid r =
  { site = Dgc_prelude.Site_id.to_int (Dgc_heap.Oid.site r);
    index = Dgc_heap.Oid.index r }

let mirror (o : Local_trace.outcome) =
  {
    m_site = Dgc_prelude.Site_id.to_int o.Local_trace.out_site;
    m_dead = o.Local_trace.dead;
    m_out_results =
      List.init (Array.length o.Local_trace.o_ors) (fun k ->
          {
            m_o_ref = m_oid o.Local_trace.o_ors.(k).Ioref.or_target;
            m_o_dist = o.Local_trace.o_dists.(k);
            m_o_suspected = Local_trace.is_set o.Local_trace.o_suspected k;
            m_o_removed = Local_trace.is_set o.Local_trace.o_removed k;
            m_o_inset = List.map m_oid o.Local_trace.o_insets.(k);
          });
    m_in_results =
      List.init (Array.length o.Local_trace.i_irs) (fun k ->
          {
            m_i_ref = m_oid o.Local_trace.i_irs.(k).Ioref.ir_target;
            m_i_suspected = Local_trace.is_set o.Local_trace.i_suspected k;
            m_i_outset = List.map m_oid o.Local_trace.i_outsets.(k);
          });
    m_stats = o.Local_trace.ot_stats;
  }

(* One digest per (fig, mode): the concatenation of the marshalled
   (mirrored) outcome of every site, in site order. [No_sharing] is
   essential — two structurally equal outcomes must digest equally
   even if their heap representations share differently. *)
let digest_of sim mode =
  let eng = sim.Sim.eng in
  let buf = Buffer.create 4096 in
  Array.iter
    (fun s ->
      let inp = Local_trace.input_of_site eng s in
      let outcome = mirror (Local_trace.compute ~mode inp) in
      Buffer.add_string buf (Marshal.to_string outcome [ Marshal.No_sharing ]))
    (Engine.sites eng);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Two table states per figure: "fresh" (conservative initial
   distances, as drawn) and "settled" (4 trace rounds converged the
   distances, then every inref re-suspected). Fresh is where fig4's
   naive mode visibly diverges from the SCC-correct one. *)
let compute_all () =
  List.concat_map
    (fun (fig, build) ->
      List.concat_map
        (fun (vname, rounds) ->
          let sim = build cfg_atomic in
          Scenario.settle sim ~rounds;
          suspect_everything sim.Sim.eng;
          List.map
            (fun (mname, mode) ->
              ((fig ^ "." ^ vname, mname), digest_of sim mode))
            modes)
        [ ("fresh", 0); ("settled", 4) ])
    figs

let expected =
  [
    (("fig1.fresh", "bottom_up"), "b111759e9a8b97a951502306e5f6a513");
    (("fig1.fresh", "independent"), "b111759e9a8b97a951502306e5f6a513");
    (("fig1.fresh", "naive"), "b111759e9a8b97a951502306e5f6a513");
    (("fig1.settled", "bottom_up"), "0232d850fb1dc93aef7e916b7a4d90cb");
    (("fig1.settled", "independent"), "0232d850fb1dc93aef7e916b7a4d90cb");
    (("fig1.settled", "naive"), "0232d850fb1dc93aef7e916b7a4d90cb");
    (("fig2.fresh", "bottom_up"), "297d998bbe3edd7cd991f241e8a019c2");
    (("fig2.fresh", "independent"), "a79f73fba0e82dfd26c8bfe07be6b72f");
    (("fig2.fresh", "naive"), "297d998bbe3edd7cd991f241e8a019c2");
    (("fig2.settled", "bottom_up"), "297d998bbe3edd7cd991f241e8a019c2");
    (("fig2.settled", "independent"), "a79f73fba0e82dfd26c8bfe07be6b72f");
    (("fig2.settled", "naive"), "297d998bbe3edd7cd991f241e8a019c2");
    (("fig3.fresh", "bottom_up"), "c007b3d3ab9bdeb5dd92d1fde034a765");
    (("fig3.fresh", "independent"), "8121519ce16fd4fdd6f11780bb6b5e3f");
    (("fig3.fresh", "naive"), "c007b3d3ab9bdeb5dd92d1fde034a765");
    (("fig3.settled", "bottom_up"), "c007b3d3ab9bdeb5dd92d1fde034a765");
    (("fig3.settled", "independent"), "8121519ce16fd4fdd6f11780bb6b5e3f");
    (("fig3.settled", "naive"), "c007b3d3ab9bdeb5dd92d1fde034a765");
    (("fig4.fresh", "bottom_up"), "213b8894a0f664f0cd0022287f46192e");
    (("fig4.fresh", "independent"), "fb9d14b50be9f602c54f8f35bad8a018");
    (("fig4.fresh", "naive"), "82fcec8beb8d4f95a768b6f04d72ad10");
    (("fig4.settled", "bottom_up"), "fa7b975606301418404672af5bb0a504");
    (("fig4.settled", "independent"), "fa7b975606301418404672af5bb0a504");
    (("fig4.settled", "naive"), "fa7b975606301418404672af5bb0a504");
    (("fig5.fresh", "bottom_up"), "a259d4814944bd7daa7afccc4ceb0934");
    (("fig5.fresh", "independent"), "a259d4814944bd7daa7afccc4ceb0934");
    (("fig5.fresh", "naive"), "a259d4814944bd7daa7afccc4ceb0934");
    (("fig5.settled", "bottom_up"), "a259d4814944bd7daa7afccc4ceb0934");
    (("fig5.settled", "independent"), "a259d4814944bd7daa7afccc4ceb0934");
    (("fig5.settled", "naive"), "a259d4814944bd7daa7afccc4ceb0934");
    (("fig6.fresh", "bottom_up"), "6dd30c885326e30f35588b7f81a41f66");
    (("fig6.fresh", "independent"), "aabab30a04e674332e83810303a3f1ed");
    (("fig6.fresh", "naive"), "6dd30c885326e30f35588b7f81a41f66");
    (("fig6.settled", "bottom_up"), "6dd30c885326e30f35588b7f81a41f66");
    (("fig6.settled", "independent"), "aabab30a04e674332e83810303a3f1ed");
    (("fig6.settled", "naive"), "6dd30c885326e30f35588b7f81a41f66");
  ]

(* The [dgc-sim] scenario config: [cfg_atomic] plus the threshold bump. *)
let cfg_run = { cfg_atomic with Config.threshold_bump = 4 }

(* Per figure: the artifact digest, the root-memo (hits, misses) and
   the outcome-reuse (reused, computed) pairs. *)
let run_figs () =
  List.map
    (fun (fig, build) ->
      let sim = build cfg_run in
      let eng = sim.Sim.eng in
      Sim.start sim;
      Sim.run_rounds sim 6;
      let art =
        Tel.Run_artifact.make ~name:fig
          ~sim_seconds:(Sim_time.to_seconds (Engine.now eng))
          ~series:(Engine.series eng) (Engine.metrics eng)
      in
      ( fig,
        ( Digest.to_hex (Digest.string (Tel.Json.to_string art)),
          Collector.root_memo_stats sim.Sim.col,
          Collector.reuse_stats sim.Sim.col ) ))
    figs

let digests_of figs = List.map (fun (fig, (d, _, _)) -> (fig, d)) figs

let expected_runs =
  [
    ("fig1", "54215484122d06570c614f8b794fd28d");
    ("fig2", "f58a7da115d6506ee1566c6d875eb91f");
    ("fig3", "1f03561c2a4d2f797fc2e7485f77562e");
    ("fig4", "23f06e403890fc9924873cc4f1631afd");
    ("fig5", "1c2e49db01051e4e50f49f5a7a1b72a5");
    ("fig6", "6e99add892fc51bbe8faae7d7b7d648c");
  ]

(* Outcome reuse (reused, computed) per figure run: a collector that
   stopped reusing local-trace outcomes, or reused one it should have
   recomputed, moves these. fig2 reuses none within six rounds. *)
let expected_reuse =
  [
    ("fig1", (2, 16));
    ("fig2", (0, 18));
    ("fig3", (16, 8));
    ("fig4", (5, 13));
    ("fig5", (7, 17));
    ("fig6", (7, 17));
  ]

(* Windowed runs: the same figure scenarios under 20 s §6.2 windows
   (plus a 4-site ring pair), so installs happen at window close, after
   [Update]s and removals from other sites landed in the open window.
   Each run pins the artifact digest and the digest of every site's
   final tables, printed sorted ([Tables.pp]), with the heap's live
   count. [landed] counts the [Update] deliveries whose destination had
   a window open, and how many of those carried removals: the table is
   only meaningful while both are non-zero. *)
let cfg_windowed = { cfg_run with Config.trace_duration = Sim_time.of_seconds 20. }

let ring4 cfg =
  let sim = Sim.make ~cfg:{ cfg with Config.n_sites = 4 } () in
  let sites = List.init 4 Dgc_prelude.Site_id.of_int in
  ignore (Graph_gen.ring sim.Sim.eng ~sites ~per_site:2 ~rooted:false);
  ignore
    (Graph_gen.ring sim.Sim.eng ~sites:(List.rev sites) ~per_site:1
       ~rooted:true);
  sim

let windowed_figs =
  List.filter (fun (f, _) -> List.mem f [ "fig1"; "fig2"; "fig5" ]) figs
  @ [ ("ring4", ring4) ]

let run_windowed () =
  List.map
    (fun (fig, build) ->
      let sim = build cfg_windowed in
      let eng = sim.Sim.eng in
      let landed = ref 0 and removals = ref 0 in
      Engine.subscribe eng (function
        | Engine.Deliver { dst; payload = Protocol.Update { removals = rs; _ }; _ }
          when Collector.in_window sim.Sim.col dst ->
            incr landed;
            if rs <> [] then incr removals
        | _ -> ());
      Sim.start sim;
      Sim.run_rounds sim 8;
      let art =
        Tel.Run_artifact.make ~name:fig
          ~sim_seconds:(Sim_time.to_seconds (Engine.now eng))
          ~series:(Engine.series eng) (Engine.metrics eng)
      in
      let tables =
        Array.to_list (Engine.sites eng)
        |> List.map (fun s ->
               Format.asprintf "%a live=%d" Tables.pp s.Site.tables
                 (Dgc_heap.Heap.object_count s.Site.heap))
        |> String.concat "\n"
      in
      ( fig,
        ( Digest.to_hex (Digest.string (Tel.Json.to_string art)),
          Digest.to_hex (Digest.string tables),
          (!landed, !removals) ) ))
    windowed_figs

let expected_windowed =
  [
    ("fig1", ("8d9fbbd997dac0813fe82acd9b08abb0", "a661b07daf6e2d78bbe9512e7fc75df9", (7, 1)));
    ("fig2", ("876333c279e73d65af6881bd6d318c4a", "8fe07b61522d5d6cc1cddcff71c23bcb", (13, 1)));
    ("fig5", ("ad87e65cc2674091005d9a1d5eaded41", "bed78f9b9db74993f70ccd269f686238", (3, 0)));
    ("ring4", ("ec8eeaa78b19b2a2110027257ccc5d93", "dbe971d17e684474e0023b429f5908cd", (20, 3)));
  ]

let dump () =
  List.iter
    (fun ((fig, mode), d) ->
      Printf.printf "    ((%S, %S), %S);\n" fig mode d)
    (compute_all ());
  print_newline ();
  let figs = run_figs () in
  List.iter
    (fun (fig, d) -> Printf.printf "    (%S, %S);\n" fig d)
    (digests_of figs);
  print_newline ();
  List.iter
    (fun (fig, (_, _, (reused, computed))) ->
      Printf.printf "    (%S, (%d, %d));\n" fig reused computed)
    figs;
  print_newline ();
  List.iter
    (fun (fig, (art, tables, (landed, removals))) ->
      Printf.printf "    (%S, (%S, %S, (%d, %d)));\n" fig art tables landed
        removals)
    (run_windowed ())

let test_golden () =
  let got = compute_all () in
  List.iter
    (fun ((fig, mode), want) ->
      match List.assoc_opt (fig, mode) got with
      | None -> Alcotest.failf "%s/%s: no digest computed" fig mode
      | Some d ->
          Alcotest.(check string)
            (Printf.sprintf "%s/%s outcome digest" fig mode)
            want d)
    expected;
  Alcotest.(check int)
    "digest count" (List.length expected) (List.length got)

let test_runs () =
  let figs = run_figs () in
  let got = digests_of figs in
  List.iter
    (fun (fig, want) ->
      Alcotest.(check string)
        (fig ^ " run artifact digest")
        want
        (Option.value ~default:"missing" (List.assoc_opt fig got)))
    expected_runs;
  List.iter
    (fun (fig, (_, (hits, _), reuse)) ->
      Alcotest.(check bool) (fig ^ " run hits the root memo") true (hits > 0);
      Alcotest.(check (pair int int))
        (fig ^ " run reuse (reused, computed)")
        (Option.value ~default:(-1, -1) (List.assoc_opt fig expected_reuse))
        reuse)
    figs;
  Alcotest.(check int)
    "run digest count" (List.length expected_runs) (List.length got)

let test_windowed () =
  let got = run_windowed () in
  List.iter
    (fun (fig, want) ->
      Alcotest.(check (triple string string (pair int int)))
        (fig ^ " windowed run (artifact, tables, (landed, removals))")
        want
        (Option.value ~default:("missing", "", (0, 0))
           (List.assoc_opt fig got)))
    expected_windowed;
  Alcotest.(check int)
    "windowed run count" (List.length expected_windowed) (List.length got);
  Alcotest.(check bool)
    "updates with removals land in open windows" true
    (List.exists (fun (_, (_, _, (_, removals))) -> removals > 0) got)

let () =
  if Sys.getenv_opt "GOLDEN_DUMP" = Some "1" then dump ()
  else
    Alcotest.run "golden_trace"
      [
        ( "golden",
          [
            Alcotest.test_case "figs 1-6, all modes" `Quick test_golden;
            Alcotest.test_case "figs 1-6, run artifacts" `Quick test_runs;
            Alcotest.test_case "windowed runs" `Quick test_windowed;
          ] );
      ]
