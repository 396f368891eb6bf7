(* The combined local trace (§3, §5): distance propagation and the
   convergence theorem, suspicion against delta, outset/inset
   computation in all three modes against a brute-force oracle, the
   Figure 4 failure of the naive mode, and the apply/swap step. *)

open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts
open Dgc_core
open Dgc_workload

let cfg_atomic =
  {
    Config.default with
    Config.delta = 3;
    threshold2 = 6;
    trace_duration = Sim_time.zero;
  }

let site_id = Site_id.of_int

let inref_dist eng r =
  match Tables.find_inref (Engine.site eng (Oid.site r)).Site.tables r with
  | Some ir -> Ioref.inref_dist ir
  | None -> Alcotest.failf "no inref for %a" Oid.pp r

let outref_dist eng ~at r =
  match Tables.find_outref (Engine.site eng at).Site.tables r with
  | Some o -> o.Ioref.or_dist
  | None -> Alcotest.failf "no outref for %a" Oid.pp r

(* --- distance propagation --------------------------------------------- *)

let test_chain_distances () =
  (* root -> o0@0 -> o1@1 -> o2@2 -> o3@3: inref of o_k has distance k. *)
  let sim = Sim.make ~cfg:{ cfg_atomic with Config.n_sites = 4 } () in
  let eng = sim.Sim.eng in
  let objs =
    Graph_gen.chain eng
      ~sites:[ site_id 0; site_id 1; site_id 2; site_id 3 ]
      ~per_site:1 ~rooted:true
  in
  Scenario.settle sim ~rounds:5;
  List.iteri
    (fun k o ->
      if k > 0 then
        Alcotest.(check int)
          (Format.asprintf "distance of %a" Oid.pp o)
          k (inref_dist eng o))
    objs

let test_fig1_c_distance () =
  (* Figure 1's c: two paths (length 2 via b, length 1 direct); the
     distance is the minimum, 1. *)
  let f = Scenario.fig1 ~cfg:cfg_atomic () in
  Scenario.settle f.Scenario.f1_sim ~rounds:4;
  Alcotest.(check int) "distance of c" 1
    (inref_dist f.Scenario.f1_sim.Sim.eng f.Scenario.f1_c)

let test_live_distances_converge_and_stay () =
  let sim = Sim.make ~cfg:{ cfg_atomic with Config.n_sites = 3 } () in
  let eng = sim.Sim.eng in
  let objs =
    Graph_gen.ring eng
      ~sites:[ site_id 0; site_id 1; site_id 2 ]
      ~per_site:2 ~rooted:true
  in
  Scenario.settle sim ~rounds:8;
  (* Only cross-site targets have inrefs. *)
  let with_inref =
    List.filter
      (fun o ->
        Tables.find_inref (Engine.site eng (Oid.site o)).Site.tables o <> None)
      objs
  in
  Alcotest.(check bool) "some inrefs exist" true (with_inref <> []);
  let d1 = List.map (fun o -> inref_dist eng o) with_inref in
  Scenario.settle sim ~rounds:4;
  let d2 = List.map (fun o -> inref_dist eng o) with_inref in
  Alcotest.(check (list int)) "live distances are a fixpoint" d1 d2;
  List.iter
    (fun d -> Alcotest.(check bool) "live distance small" true (d <= 3))
    d1

(* The §3 theorem: r rounds after a cycle becomes garbage, every ioref
   on it has estimated distance at least r. *)
let test_garbage_distance_growth () =
  List.iter
    (fun span ->
      let sim = Sim.make ~cfg:{ cfg_atomic with Config.n_sites = span } () in
      let eng = sim.Sim.eng in
      let sites = List.init span site_id in
      let objs = Graph_gen.ring eng ~sites ~per_site:2 ~rooted:false in
      for r = 1 to 8 do
        Scenario.settle sim ~rounds:1;
        let min_dist =
          List.fold_left
            (fun acc o ->
              match
                Tables.find_inref (Engine.site eng (Oid.site o)).Site.tables o
              with
              | Some ir -> min acc (Ioref.inref_dist ir)
              | None -> acc)
            max_int objs
        in
        Alcotest.(check bool)
          (Format.asprintf "span %d: min distance %d >= round %d" span
             min_dist r)
          true (min_dist >= r)
      done)
    [ 2; 3; 5 ]

let test_suspected_after_delta_rounds () =
  let sim = Sim.make ~cfg:{ cfg_atomic with Config.n_sites = 2 } () in
  let eng = sim.Sim.eng in
  let objs =
    Graph_gen.ring eng ~sites:[ site_id 0; site_id 1 ] ~per_site:1
      ~rooted:false
  in
  Scenario.settle sim ~rounds:6;
  (* delta = 3 and six rounds passed: every inref on the cycle must be
     suspected by now. *)
  List.iter
    (fun o ->
      match Tables.find_inref (Engine.site eng (Oid.site o)).Site.tables o with
      | Some ir ->
          Alcotest.(check bool)
            (Format.asprintf "%a suspected" Oid.pp o)
            true ir.Ioref.ir_suspected
      | None -> Alcotest.fail "missing inref")
    objs

(* --- outsets: three modes vs brute force ------------------------------ *)

let brute_outsets inp =
  let graph = inp.Local_trace.in_graph in
  let delta = inp.Local_trace.in_delta in
  let clean_roots =
    inp.Local_trace.in_roots
    @ List.filter_map
        (fun (r, d, flagged) -> if flagged || d > delta then None else Some r)
        inp.Local_trace.in_inrefs
  in
  let clean_locals, clean_remotes = Reach.closure graph ~from:clean_roots in
  List.filter_map
    (fun (r, d, flagged) ->
      if flagged || d <= delta then None
      else begin
        (* DFS from the suspect's object avoiding clean objects. *)
        let visited = ref Oid.Set.empty in
        let out = ref Oid.Set.empty in
        let rec go z =
          if Site_id.equal (Oid.site z) inp.Local_trace.in_site then begin
            if
              Dense.present graph (Oid.index z)
              && (not (Oid.Set.mem z clean_locals))
              && not (Oid.Set.mem z !visited)
            then begin
              visited := Oid.Set.add z !visited;
              List.iter go (Dense.fields graph (Oid.index z))
            end
          end
          else if not (Oid.Set.mem z clean_remotes) then
            out := Oid.Set.add z !out
        in
        go r;
        Some (r, Oid.Set.elements !out)
      end)
    inp.Local_trace.in_inrefs

let outsets_of_outcome outcome =
  List.filter_map
    (fun res ->
      if res.Local_trace.i_suspected then
        Some
          ( res.Local_trace.i_ref,
            List.sort Oid.compare res.Local_trace.i_outset )
      else None)
    outcome.Local_trace.in_results
  |> List.sort (fun (a, _) (b, _) -> Oid.compare a b)

let check_modes_match inp =
  let brute =
    brute_outsets inp
    |> List.map (fun (r, l) -> (r, List.sort Oid.compare l))
    |> List.sort (fun (a, _) (b, _) -> Oid.compare a b)
  in
  let bu =
    outsets_of_outcome (Local_trace.compute ~mode:Local_trace.Bottom_up inp)
  in
  let ind =
    outsets_of_outcome (Local_trace.compute ~mode:Local_trace.Independent inp)
  in
  let pp_sets sets =
    Format.asprintf "%a"
      (Format.pp_print_list (fun ppf (r, l) ->
           Format.fprintf ppf "%a:[%a] " Oid.pp r
             (Format.pp_print_list Oid.pp) l))
      sets
  in
  if bu <> brute then
    Alcotest.failf "bottom-up mismatch:@ got %s@ want %s" (pp_sets bu)
      (pp_sets brute);
  if ind <> brute then
    Alcotest.failf "independent mismatch:@ got %s@ want %s" (pp_sets ind)
      (pp_sets brute)

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

let test_fig2_outsets_modes () =
  let f = Scenario.fig2 ~cfg:cfg_atomic () in
  let eng = f.Scenario.f2_sim.Sim.eng in
  suspect_everything eng;
  Array.iter
    (fun s -> check_modes_match (Local_trace.input_of_site eng s))
    (Engine.sites eng)

let test_fig4_naive_is_wrong () =
  let f = Scenario.fig4 ~cfg:cfg_atomic () in
  let eng = f.Scenario.f4_sim.Sim.eng in
  let q = Engine.site eng (Oid.site f.Scenario.f4_a) in
  suspect_everything eng;
  let inp = Local_trace.input_of_site eng q in
  (* Correct modes agree with brute force. *)
  check_modes_match inp;
  let outset_of mode r =
    let outcome = Local_trace.compute ~mode inp in
    List.assoc r (outsets_of_outcome outcome)
  in
  (* b reaches c through the z <-> x component. *)
  Alcotest.(check bool)
    "bottom-up: c in outset of b" true
    (List.exists (Oid.equal f.Scenario.f4_c)
       (outset_of Local_trace.Bottom_up f.Scenario.f4_b));
  (* The naive first cut misses it: z's outset was frozen before x
     finished (§5.2's backward-edge failure). *)
  Alcotest.(check bool)
    "naive: c missing from outset of b" false
    (List.exists (Oid.equal f.Scenario.f4_c)
       (outset_of Local_trace.Naive_bottom_up f.Scenario.f4_b))

(* Randomized graphs: all correct modes equal brute force. *)
let random_input rand =
  let n = 3 + Random.State.int rand 18 in
  let cfg = { cfg_atomic with Config.n_sites = 3 } in
  let eng = Engine.create cfg in
  let q = Engine.site eng (site_id 1) in
  let objs = Array.init n (fun _ -> Heap.alloc q.Site.heap) in
  (* random local edges *)
  for _ = 1 to n * 2 do
    let a = objs.(Random.State.int rand n) in
    let b = objs.(Random.State.int rand n) in
    Heap.add_field q.Site.heap ~obj:a ~target:b
  done;
  (* some remote targets at site 2 *)
  for _ = 1 to 1 + (n / 3) do
    let a = objs.(Random.State.int rand n) in
    let r = Builder.obj eng (site_id 2) in
    Builder.link eng ~src:a ~dst:r
  done;
  (* some inrefs from site 0, random distances; occasionally flagged *)
  for _ = 1 to 2 + (n / 3) do
    let o = objs.(Random.State.int rand n) in
    let holder = Builder.obj eng (site_id 0) in
    Builder.link eng ~src:holder ~dst:o;
    Builder.set_source_distance eng ~inref:o ~src:(site_id 0)
      (Random.State.int rand 10);
    if Random.State.int rand 10 = 0 then begin
      match Tables.find_inref q.Site.tables o with
      | Some ir -> Tables.flag_inref q.Site.tables ir
      | None -> ()
    end
  done;
  (* occasionally a persistent root *)
  if Random.State.bool rand then
    Heap.add_persistent_root q.Site.heap objs.(Random.State.int rand n);
  Local_trace.input_of_site eng q

let prop_modes_equal_brute =
  QCheck2.Test.make ~name:"outset modes match brute force" ~count:200
    ~print:string_of_int
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let inp = random_input rand in
      check_modes_match inp;
      true)

(* Independent tracing visits at least as many objects as bottom-up. *)
let prop_independent_cost =
  QCheck2.Test.make ~name:"independent visits >= bottom-up visits" ~count:100
    ~print:string_of_int
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let inp = random_input rand in
      let bu =
        (Local_trace.compute ~mode:Local_trace.Bottom_up inp)
          .Local_trace.ot_stats
      in
      let ind =
        (Local_trace.compute ~mode:Local_trace.Independent inp)
          .Local_trace.ot_stats
      in
      ind.Local_trace.suspect_visits >= bu.Local_trace.suspect_visits)

(* --- apply / swap ------------------------------------------------------ *)

let test_apply_removes_untraced_outrefs () =
  let sim = Sim.make ~cfg:{ cfg_atomic with Config.n_sites = 2 } () in
  let eng = sim.Sim.eng in
  let a = Builder.root_obj eng (site_id 0) in
  let b = Builder.obj eng (site_id 1) in
  Builder.link eng ~src:a ~dst:b;
  Scenario.settle sim ~rounds:2;
  Builder.unlink eng ~src:a ~dst:b;
  Scenario.settle sim ~rounds:1;
  (* Outref gone at site 0 after its trace... *)
  Alcotest.(check bool) "outref removed" true
    (Tables.find_outref (Engine.site eng (site_id 0)).Site.tables b = None);
  Scenario.settle sim ~rounds:1;
  (* ...update message landed: inref gone, object collected. *)
  Alcotest.(check bool) "inref removed" true
    (Tables.find_inref (Engine.site eng (site_id 1)).Site.tables b = None);
  Alcotest.(check bool) "b collected" false
    (Heap.mem (Engine.site eng (site_id 1)).Site.heap b)

let test_apply_sends_distance_updates () =
  let sim = Sim.make ~cfg:{ cfg_atomic with Config.n_sites = 3 } () in
  let eng = sim.Sim.eng in
  let objs =
    Graph_gen.chain eng
      ~sites:[ site_id 0; site_id 1; site_id 2 ]
      ~per_site:1 ~rooted:true
  in
  Scenario.settle sim ~rounds:4;
  match objs with
  | [ _; o1; o2 ] ->
      Alcotest.(check int) "outref to o2 at site1 has dist 2" 2
        (outref_dist eng ~at:(site_id 1) o2);
      Alcotest.(check int) "inref dist o1" 1 (inref_dist eng o1)
  | _ -> Alcotest.fail "expected three objects"

let test_sweep_keeps_fresh_objects () =
  (* Objects allocated during a trace window survive the sweep. *)
  let cfg =
    {
      cfg_atomic with
      Config.n_sites = 1;
      trace_duration = Sim_time.of_seconds 5.;
    }
  in
  let sim = Sim.make ~cfg () in
  let eng = sim.Sim.eng in
  let s = Engine.site eng (site_id 0) in
  let _root = Builder.root_obj eng (site_id 0) in
  (* Open a window via the scheduled path. *)
  s.Site.hooks.Site.h_run_local_trace ();
  Alcotest.(check bool) "window open" true
    (Collector.in_window sim.Sim.col (site_id 0));
  let fresh = Heap.alloc s.Site.heap in
  Sim.run_for sim (Sim_time.of_seconds 10.);
  Alcotest.(check bool) "window closed" false
    (Collector.in_window sim.Sim.col (site_id 0));
  Alcotest.(check bool) "fresh object survived the windowed sweep" true
    (Heap.mem s.Site.heap fresh);
  (* It is garbage, so the next full trace collects it. *)
  Collector.force_local_trace sim.Sim.col (site_id 0);
  Alcotest.(check bool) "collected by the next trace" false
    (Heap.mem s.Site.heap fresh)

let test_memoization_effective_on_chains () =
  (* A long chain hanging off two suspected inrefs: every object shares
     the same outset, so the store keeps few distinct sets. *)
  let cfg = { cfg_atomic with Config.n_sites = 3 } in
  let eng = Engine.create cfg in
  let q = Engine.site eng (site_id 1) in
  let chain = List.init 50 (fun _ -> Heap.alloc q.Site.heap) in
  Builder.chain eng chain;
  let last = List.nth chain 49 in
  let remote = Builder.obj eng (site_id 2) in
  Builder.link eng ~src:last ~dst:remote;
  List.iteri
    (fun i o ->
      if i < 2 then begin
        let holder = Builder.obj eng (site_id 0) in
        Builder.link eng ~src:holder ~dst:o;
        Builder.set_source_distance eng ~inref:o ~src:(site_id 0) 50
      end)
    chain;
  let inp = Local_trace.input_of_site eng q in
  let outcome = Local_trace.compute ~mode:Local_trace.Bottom_up inp in
  let st = outcome.Local_trace.ot_stats in
  Alcotest.(check bool) "few distinct outsets" true
    (st.Local_trace.distinct_outsets <= 4);
  Alcotest.(check int) "every object scanned once" 50
    st.Local_trace.suspect_visits

let test_inset_is_inverse_of_outset () =
  let f = Scenario.fig2 ~cfg:cfg_atomic () in
  let eng = f.Scenario.f2_sim.Sim.eng in
  suspect_everything eng;
  Array.iter
    (fun s ->
      let outcome = Local_trace.compute (Local_trace.input_of_site eng s) in
      (* o in outset(i) implies i in inset(o) *)
      List.iter
        (fun ires ->
          if ires.Local_trace.i_suspected then
            List.iter
              (fun o ->
                let ores =
                  List.find
                    (fun x -> Oid.equal x.Local_trace.o_ref o)
                    outcome.Local_trace.out_results
                in
                Alcotest.(check bool)
                  (Format.asprintf "%a in inset of %a" Oid.pp
                     ires.Local_trace.i_ref Oid.pp o)
                  true
                  (List.exists
                     (Oid.equal ires.Local_trace.i_ref)
                     ores.Local_trace.o_inset))
              ires.Local_trace.i_outset)
        outcome.Local_trace.in_results)
    (Engine.sites eng)

(* Atomic and windowed traces share one input path: over an unmutated
   heap, an input built from a snapshot taken at window open computes
   the same outcome, byte for byte, as an atomic trace. *)
let outcome_digest ?mode ?memo inp =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (Local_trace.compute ?mode ?memo inp)
          [ Marshal.No_sharing ]))

let check_windowed_matches_atomic eng =
  Array.iter
    (fun s ->
      let windowed =
        Local_trace.input_of_snapshot eng s (Snapshot.take s.Site.heap)
      in
      Alcotest.(check string)
        (Format.asprintf "site %a outcome" Site_id.pp s.Site.id)
        (outcome_digest (Local_trace.input_of_site eng s))
        (outcome_digest windowed))
    (Engine.sites eng)

let test_windowed_matches_atomic () =
  let f = Scenario.fig2 ~cfg:cfg_atomic () in
  let eng = f.Scenario.f2_sim.Sim.eng in
  suspect_everything eng;
  check_windowed_matches_atomic eng;
  let eng = Engine.create { cfg_atomic with Config.n_sites = 3; seed = 7 } in
  let rng = Rng.create ~seed:7 in
  ignore
    (Graph_gen.random_graph eng ~rng ~objects_per_site:200 ~out_degree:2.5
       ~remote_frac:0.3 ~root_frac:0.05);
  (* Holes from frees leave dangling local references in the capture. *)
  Array.iter
    (fun s ->
      let heap = s.Site.heap in
      let victims = List.filter (fun i -> i mod 7 = 3) (Heap.indices heap) in
      ignore (Heap.free heap victims))
    (Engine.sites eng);
  suspect_everything eng;
  check_windowed_matches_atomic eng

(* Two inputs for the §6.2 arrival rule: a reference that arrives
   while a window is open is a root of the new copy.

   Remote arrival: the reference arrives at an outref that is already
   clean and is stored in the heap after the snapshot was taken. The
   window's trace finds the outref untraced; the swap must keep it.
   Dropping it sends a removal to the owner, which then frees a live
   object. *)
let window_cfg n_sites =
  {
    cfg_atomic with
    Config.n_sites;
    trace_duration = Sim_time.of_seconds 5.;
    oracle_checks = true;
  }

let window_keeps_remote_arrival () =
  let sim = Sim.make ~cfg:(window_cfg 2) () in
  let eng = sim.Sim.eng in
  let s0 = Engine.site eng (site_id 0) and s1 = Engine.site eng (site_id 1) in
  let a = Builder.root_obj eng (site_id 0) in
  let x = Builder.obj eng (site_id 1) in
  Builder.link eng ~src:a ~dst:x;
  (* S0 drops its reference but keeps the (clean) outref until its next
     trace; that trace's window opens now, before x comes back. *)
  Builder.unlink eng ~src:a ~dst:x;
  s0.Site.hooks.Site.h_run_local_trace ();
  Alcotest.(check bool) "window open" true
    (Collector.in_window sim.Sim.col (site_id 0));
  (* An agent carries x from S1 to S0, which stores it in a. *)
  Engine.set_agent_arrival eng (fun ~agent:_ ~dst ->
      if Site_id.equal dst (site_id 0) then
        Heap.add_field s0.Site.heap ~obj:a ~target:x);
  Engine.move_agent eng ~agent:0 ~src:(site_id 1) ~dst:(site_id 0)
    ~refs:[ x ];
  Sim.run_for sim (Sim_time.of_seconds 10.);
  Alcotest.(check bool) "window closed" false
    (Collector.in_window sim.Sim.col (site_id 0));
  Alcotest.(check bool) "S0 keeps its outref for x" true
    (Tables.find_outref s0.Site.tables x <> None);
  Collector.force_local_trace sim.Sim.col (site_id 1);
  Alcotest.(check bool) "x, reachable from S0's root, survives" true
    (Heap.mem s1.Site.heap x)

(* Local arrival: an agent brings S0's own object z home while S0's
   window is open. The barrier cleans z's suspected inref and its
   outset on the old copy; the window's trace, from a snapshot taken
   before the arrival, suspects them again, so the swap must clean
   them on the new copy. Each suspected -> clean transition raises one
   clean-rule notification through the site hook. *)
let window_cleans_local_arrival () =
  let sim = Sim.make ~cfg:(window_cfg 3) () in
  let eng = sim.Sim.eng in
  let s0 = Engine.site eng (site_id 0) in
  let z = Builder.obj eng (site_id 0) in
  let y = Builder.obj eng (site_id 2) in
  Builder.link eng ~src:(Builder.root_obj eng (site_id 1)) ~dst:z;
  Builder.link eng ~src:z ~dst:y;
  Builder.set_source_distance eng ~inref:z ~src:(site_id 1) 50;
  Collector.force_local_trace sim.Sim.col (site_id 0);
  let inref () = Option.get (Tables.find_inref s0.Site.tables z) in
  let outref_clean r =
    Ioref.outref_clean (Option.get (Tables.find_outref s0.Site.tables r))
  in
  let delta = cfg_atomic.Config.delta in
  Alcotest.(check bool) "z's inref suspected" false
    (Ioref.inref_clean ~delta (inref ()));
  Alcotest.(check bool) "y's outref suspected" false (outref_clean y);
  let notified = ref [] in
  let hook = s0.Site.hooks.Site.h_ioref_cleaned in
  s0.Site.hooks.Site.h_ioref_cleaned <-
    (fun r ->
      notified := r :: !notified;
      hook r);
  s0.Site.hooks.Site.h_run_local_trace ();
  Engine.move_agent eng ~agent:0 ~src:(site_id 1) ~dst:(site_id 0)
    ~refs:[ z ];
  Sim.run_for sim (Sim_time.of_seconds 10.);
  Alcotest.(check bool) "window closed" false
    (Collector.in_window sim.Sim.col (site_id 0));
  let ir = inref () in
  Alcotest.(check bool) "z's inref clean on the new copy" true
    (Ioref.inref_clean ~delta ir);
  Alcotest.(check (list string)) "new outset" [ Oid.to_string y ]
    (List.map Oid.to_string ir.Ioref.ir_outset);
  List.iter
    (fun r ->
      Alcotest.(check bool) "outset outref clean on the new copy" true
        (outref_clean r))
    ir.Ioref.ir_outset;
  (* Barrier on the old copy, then the swap on the new one. *)
  Alcotest.(check (list string)) "one notification per transition"
    (List.map Oid.to_string [ z; y; z; y ])
    (List.rev_map Oid.to_string !notified)

let test_window_keeps_arrived_outref () =
  window_keeps_remote_arrival ();
  window_cleans_local_arrival ()

(* --- root-closure memo ---------------------------------------------------- *)

let all_modes =
  [
    ("bottom_up", Local_trace.Bottom_up);
    ("independent", Local_trace.Independent);
    ("naive", Local_trace.Naive_bottom_up);
  ]

(* A memo hit or miss must not show in the outcome: in every mode, the
   memoized compute equals the memo-less one byte for byte. Returns
   whether the bottom-up compute hit. *)
let memo_agrees memo inp =
  List.fold_left
    (fun hit (name, mode) ->
      let h0, _ = Local_trace.memo_stats memo in
      let memoized = outcome_digest ~mode ~memo inp in
      let h1, _ = Local_trace.memo_stats memo in
      Alcotest.(check string)
        (name ^ ": memoized outcome = fresh outcome")
        (outcome_digest ~mode inp) memoized;
      if mode = Local_trace.Bottom_up then h1 > h0 else hit)
    false all_modes

(* A random heap at site 1 with local edges, outrefs to site 2, inrefs
   from site 0 at random distances, one persistent root and a mutable
   application-root list; then random writes interleaved with traces. *)
let prop_memo_equals_fresh =
  QCheck2.Test.make ~name:"memoized compute equals fresh compute" ~count:150
    ~print:string_of_int
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let rnd n = Random.State.int rand n in
      let eng = Engine.create { cfg_atomic with Config.n_sites = 3 } in
      let q = Engine.site eng (site_id 1) in
      let heap = q.Site.heap in
      let n = 4 + rnd 16 in
      let objs = Array.init n (fun _ -> Heap.alloc heap) in
      for _ = 1 to 2 * n do
        Heap.add_field heap ~obj:objs.(rnd n) ~target:objs.(rnd n)
      done;
      let remotes =
        Array.init
          (1 + (n / 4))
          (fun _ ->
            let r = Builder.obj eng (site_id 2) in
            Builder.link eng ~src:objs.(rnd n) ~dst:r;
            r)
      in
      for _ = 1 to 1 + (n / 4) do
        let o = objs.(rnd n) in
        let holder = Builder.obj eng (site_id 0) in
        Builder.link eng ~src:holder ~dst:o;
        Builder.set_source_distance eng ~inref:o ~src:(site_id 0) (rnd 8)
      done;
      Heap.add_persistent_root heap objs.(0);
      let app = ref [ objs.(rnd n) ] in
      Engine.set_extra_roots eng (fun id ->
          if Site_id.equal id q.Site.id then !app else []);
      let live () =
        List.map
          (fun index -> Oid.make ~site:q.Site.id ~index)
          (Heap.indices heap)
      in
      let pick l = List.nth l (rnd (List.length l)) in
      let write () =
        let l = live () in
        match rnd 11 with
        | 0 -> ignore (Heap.alloc heap)
        | 1 -> Heap.add_field heap ~obj:(pick l) ~target:(pick l)
        | 2 ->
            Heap.add_field heap ~obj:(pick l)
              ~target:remotes.(rnd (Array.length remotes))
        | 3 -> (
            let a = pick l in
            match Heap.fields heap a with
            | [] -> ()
            | fs -> ignore (Heap.remove_field heap ~obj:a ~target:(pick fs)))
        | 4 -> Heap.clear_fields heap (pick l)
        | 5 -> Heap.add_persistent_root heap (pick l)
        | 6 -> Heap.retarget heap ~old_oid:(pick l) ~fresh:(pick l)
        | 7 ->
            app :=
              (match rnd 3 with
              | 0 -> pick l :: !app
              | 1 -> ( match !app with [] -> [] | _ :: tl -> tl)
              | _ -> [ pick l ])
        | 8 | 9 -> (
            let roots = Heap.persistent_roots heap @ !app in
            match
              List.filter (fun o -> not (List.exists (Oid.equal o) roots)) l
            with
            | [] -> ()
            | victims -> ignore (Heap.free heap [ Oid.index (pick victims) ]))
        | _ -> ()
      in
      let memo = Local_trace.memo () in
      (* The collector's reuse rule: on a stamp hit, the outcome kept
         from the last input stands in for a compute of this one. *)
      let kept = ref None in
      for _ = 1 to 12 do
        write ();
        let now = Local_trace.stamp eng q in
        let inp = Local_trace.input_of_site eng q in
        (match !kept with
        | Some (before, outcome) when Local_trace.same_input now before ->
            Alcotest.(check string)
              "outcome reused on a stamp hit = fresh memo-less outcome"
              (outcome_digest inp) outcome
        | _ -> ());
        ignore (memo_agrees memo inp);
        kept := Some (Local_trace.stamp eng q, outcome_digest ~memo inp)
      done;
      true)

(* Each event that can change the root group's closure forces a miss;
   a sweep that frees only garbage keeps the memo. *)
let test_memo_misses_and_hits () =
  let eng = Engine.create { cfg_atomic with Config.n_sites = 2 } in
  let q = Engine.site eng (site_id 0) in
  let heap = q.Site.heap in
  let root = Heap.alloc heap in
  let a = Heap.alloc heap and b = Heap.alloc heap and c = Heap.alloc heap in
  let g1 = Heap.alloc heap and g2 = Heap.alloc heap in
  Heap.add_persistent_root heap root;
  Heap.add_field heap ~obj:root ~target:a;
  Heap.add_field heap ~obj:a ~target:b;
  Heap.add_field heap ~obj:g1 ~target:g2;
  let app = ref [] in
  Engine.set_extra_roots eng (fun _ -> !app);
  let memo = Local_trace.memo () in
  let expect name hit =
    Alcotest.(check bool)
      name hit
      (memo_agrees memo (Local_trace.input_of_site eng q))
  in
  expect "first trace misses" false;
  expect "unchanged heap hits" true;
  ignore (Heap.free heap [ Oid.index g2 ]);
  expect "sweep of garbage only hits" true;
  List.iter
    (fun (event, f) ->
      f ();
      expect (event ^ " misses") false;
      expect ("hit again after " ^ event) true)
    [
      ("alloc", fun () -> ignore (Heap.alloc heap));
      ("add_field", fun () -> Heap.add_field heap ~obj:b ~target:c);
      ("remove_field", fun () -> ignore (Heap.remove_field heap ~obj:b ~target:c));
      ("clear_fields", fun () -> Heap.clear_fields heap g1);
      ("add_persistent_root", fun () -> Heap.add_persistent_root heap c);
      ("retarget", fun () -> Heap.retarget heap ~old_oid:b ~fresh:c);
      ("app-root change", fun () -> app := [ g1 ]);
      ("free of a root-reachable object", fun () ->
          ignore (Heap.free heap [ Oid.index a ]));
    ]

(* The §3 theorem on arbitrary strongly connected garbage, not just
   clean rings: random chords added to a ring keep it one SCC; the
   minimum estimated distance must still dominate the round count. *)
let prop_distance_theorem_random_sccs =
  QCheck2.Test.make ~name:"distance theorem on random garbage SCCs" ~count:25
    ~print:string_of_int
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let span = 2 + Random.State.int rand 4 in
      let per_site = 1 + Random.State.int rand 3 in
      let sim = Sim.make ~cfg:{ cfg_atomic with Config.n_sites = span } () in
      let eng = sim.Sim.eng in
      let objs =
        Graph_gen.ring eng
          ~sites:(List.init span site_id)
          ~per_site ~rooted:false
      in
      let arr = Array.of_list objs in
      let n = Array.length arr in
      (* random chords (possibly cross-site) inside the cycle *)
      for _ = 1 to 1 + Random.State.int rand (2 * span) do
        let a = arr.(Random.State.int rand n) in
        let b = arr.(Random.State.int rand n) in
        if not (Oid.equal a b) then Builder.link eng ~src:a ~dst:b
      done;
      let ok = ref true in
      for r = 1 to 6 do
        Scenario.settle sim ~rounds:1;
        let min_dist =
          List.fold_left
            (fun acc o ->
              match
                Tables.find_inref (Engine.site eng (Oid.site o)).Site.tables o
              with
              | Some ir -> min acc (Ioref.inref_dist ir)
              | None -> acc)
            max_int objs
        in
        if min_dist < r then ok := false
      done;
      !ok)

let qsuite =
  List.map (fun t -> QCheck_alcotest.to_alcotest t)
    [
      prop_modes_equal_brute;
      prop_independent_cost;
      prop_distance_theorem_random_sccs;
      prop_memo_equals_fresh;
    ]

let () =
  Alcotest.run "local_trace"
    [
      ( "distance",
        [
          Alcotest.test_case "chain distances" `Quick test_chain_distances;
          Alcotest.test_case "fig1: c at distance 1" `Quick
            test_fig1_c_distance;
          Alcotest.test_case "live distances converge" `Quick
            test_live_distances_converge_and_stay;
          Alcotest.test_case "garbage distances grow (theorem)" `Quick
            test_garbage_distance_growth;
          Alcotest.test_case "cycle suspected after delta rounds" `Quick
            test_suspected_after_delta_rounds;
        ] );
      ( "outsets",
        [
          Alcotest.test_case "fig2 modes match brute force" `Quick
            test_fig2_outsets_modes;
          Alcotest.test_case "fig4: naive bottom-up is wrong" `Quick
            test_fig4_naive_is_wrong;
          Alcotest.test_case "memoization shares chain outsets" `Quick
            test_memoization_effective_on_chains;
          Alcotest.test_case "insets invert outsets" `Quick
            test_inset_is_inverse_of_outset;
          Alcotest.test_case "windowed outcome equals atomic" `Quick
            test_windowed_matches_atomic;
          Alcotest.test_case "root memo: misses and hits" `Quick
            test_memo_misses_and_hits;
        ] );
      ( "apply",
        [
          Alcotest.test_case "untraced outrefs removed + update" `Quick
            test_apply_removes_untraced_outrefs;
          Alcotest.test_case "distance updates sent" `Quick
            test_apply_sends_distance_updates;
          Alcotest.test_case "snapshot window keeps fresh objects" `Quick
            test_sweep_keeps_fresh_objects;
          Alcotest.test_case "window keeps the outref of an arrival" `Quick
            test_window_keeps_arrived_outref;
        ] );
      ("properties", qsuite);
    ]
