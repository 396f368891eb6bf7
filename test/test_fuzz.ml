(* Schedule fuzzing: randomized timings, latencies, faults and
   mutations, with the oracle watching every sweep. Safety must hold
   under every schedule; completeness once the chaos stops. *)

open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts
open Dgc_core
open Dgc_workload

let base_cfg =
  {
    Config.default with
    Config.delta = 3;
    threshold2 = 6;
    threshold_bump = 4;
    trace_interval = Sim_time.of_seconds 10.;
    trace_jitter = Sim_time.of_seconds 2.;
    trace_duration = Sim_time.zero;
  }

(* --- the fig5/6 race under randomized schedules ------------------------- *)

(* Like Scenario.fig5_race but with whatever latency model and trace
   start offset the fuzzer picks; barriers on, so every interleaving
   must be safe (any verdict is acceptable, killing z or g is not). *)
let random_race ~seed =
  let rng = Rng.create ~seed in
  let latency =
    match Rng.int rng 3 with
    | 0 ->
        Latency.Uniform
          ( Sim_time.of_millis (Rng.float_in rng 0.5 5.),
            Sim_time.of_millis (Rng.float_in rng 5. 40.) )
    | 1 -> Latency.Fixed (Sim_time.of_millis (Rng.float_in rng 1. 25.))
    | _ -> Latency.Exponential (Sim_time.of_millis (Rng.float_in rng 2. 15.))
  in
  let cfg =
    {
      base_cfg with
      Config.seed;
      latency;
      trace_duration =
        (if Rng.bool rng then Sim_time.of_seconds 1. else Sim_time.zero);
    }
  in
  let use_fig6 = Rng.bool rng in
  let f = if use_fig6 then fst (Scenario.fig6 ~cfg ()) else Scenario.fig5 ~cfg () in
  let sim = f.Scenario.f5_sim in
  let eng = sim.Sim.eng in
  Scenario.settle sim ~rounds:9;
  let agent = Mutator.spawn sim.Sim.muts ~at:f.Scenario.f5_p in
  Scenario.walk sim agent ~start_root:f.Scenario.f5_a
    ~path:
      [
        f.Scenario.f5_b;
        f.Scenario.f5_c;
        f.Scenario.f5_d;
        f.Scenario.f5_e;
        f.Scenario.f5_f;
        f.Scenario.f5_x;
        f.Scenario.f5_z;
      ]
    ~captures:[ (f.Scenario.f5_b, "b") ]
    ~k:(fun () ->
      let heap_q = (Engine.site eng f.Scenario.f5_q).Site.heap in
      let y_idx =
        let rec find i = function
          | [] -> -1
          | fld :: tl ->
              if Oid.equal fld f.Scenario.f5_y then i else find (i + 1) tl
        in
        find 0 (Heap.fields heap_q f.Scenario.f5_b)
      in
      if y_idx >= 0 then begin
        ignore (Mutator.read_field agent ~obj:"b" ~idx:y_idx ~dst:"y");
        ignore (Mutator.write agent ~obj:"y" ~value:"cur")
      end;
      let delete_after = Rng.float_in rng 0. 30. in
      Engine.schedule eng ~delay:(Sim_time.of_millis delete_after) (fun () ->
          Builder.unlink eng ~src:f.Scenario.f5_d ~dst:f.Scenario.f5_e;
          Collector.force_local_trace sim.Sim.col f.Scenario.f5_s))
    ();
  (* several back traces fired at random offsets, from both candidate
     outrefs *)
  for _ = 1 to 3 do
    let off = Rng.float_in rng 0. 150. in
    let from_h = Rng.bool rng in
    Engine.schedule eng ~delay:(Sim_time.of_millis off) (fun () ->
        ignore
          (if from_h then
             Collector.start_back_trace sim.Sim.col f.Scenario.f5_p
               f.Scenario.f5_h
           else
             Collector.start_back_trace sim.Sim.col f.Scenario.f5_q
               f.Scenario.f5_g))
  done;
  Sim.run_for sim (Sim_time.of_seconds 60.);
  Collector.force_local_trace_all sim.Sim.col;
  Sim.run_for sim (Sim_time.of_seconds 10.);
  Collector.force_local_trace_all sim.Sim.col;
  (* z and g are live through y; they must have survived. *)
  if not (Heap.mem (Engine.site eng f.Scenario.f5_q).Site.heap f.Scenario.f5_z)
  then Alcotest.failf "seed %d: z was killed" seed;
  if not (Heap.mem (Engine.site eng f.Scenario.f5_p).Site.heap f.Scenario.f5_g)
  then Alcotest.failf "seed %d: g was killed" seed

let prop_race_fuzz =
  QCheck2.Test.make ~name:"fig5/6 race safe under random schedules" ~count:40
    ~print:string_of_int
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      (try random_race ~seed
       with Dgc_oracle.Oracle.Safety_violation m ->
         Alcotest.failf "seed %d: %s" seed m);
      true)

(* --- chaos: crashes, partitions, churn, loss ----------------------------- *)

let chaos_run ~seed =
  let cfg =
    {
      base_cfg with
      Config.n_sites = 5;
      seed;
      ext_drop = 0.1;
      trace_duration = Sim_time.of_seconds 1.;
      latency = Latency.Uniform (Sim_time.of_millis 1., Sim_time.of_millis 25.);
    }
  in
  let sim = Sim.make ~cfg () in
  let eng = sim.Sim.eng in
  let rng = Rng.create ~seed:(seed * 3) in
  Array.iter (fun st -> ignore (Builder.root_obj eng st.Site.id)) (Engine.sites eng);
  ignore
    (Graph_gen.random_graph eng ~rng ~objects_per_site:10 ~out_degree:1.4
       ~remote_frac:0.35 ~root_frac:0.1);
  let churn =
    Churn.start sim ~rng:(Rng.create ~seed:(seed * 5)) ~agents:3
      ~mean_op_gap:(Sim_time.of_millis 400.)
  in
  Sim.start sim;
  (* Random fault schedule over five simulated minutes. The mutators'
     base messages park during faults and land afterwards; the
     collector's traffic gets dropped and must recover. *)
  let crashed = ref None in
  for _ = 1 to 10 do
    Sim.run_for sim (Sim_time.of_seconds 30.);
    match Rng.int rng 4 with
    | 0 -> begin
        match !crashed with
        | None ->
            let v = Site_id.of_int (Rng.int rng 5) in
            Engine.crash eng v;
            crashed := Some v
        | Some v ->
            Engine.recover eng v;
            crashed := None
      end
    | 1 ->
        Engine.partition eng
          [ [ Site_id.of_int 0; Site_id.of_int 1 ];
            [ Site_id.of_int 2; Site_id.of_int 3; Site_id.of_int 4 ] ]
    | 2 -> Engine.heal eng
    | _ -> ()
  done;
  (* End of chaos: restore the world, stop the collector's message loss
     and demand completeness. With the loss left on, nearly every back
     trace ends Live by a §4.6 timeout and the garbage outlives any
     round budget. *)
  (match !crashed with Some v -> Engine.recover eng v | None -> ());
  Engine.heal eng;
  Engine.set_chaos_drop eng (Some 0.);
  Churn.stop churn;
  Sim.run_for sim (Sim_time.of_minutes 1.);
  let ok = Sim.collect_all sim ~max_rounds:80 () in
  if not ok then
    Alcotest.failf "seed %d: %d garbage objects survived the chaos" seed
      (Dgc_oracle.Oracle.garbage_count eng);
  (* Quiesced: the §6 invariants and table integrity must hold. *)
  Scenario.settle sim ~rounds:6;
  (match Invariants.strings (Invariants.check_all eng) with
  | [] -> ()
  | v :: _ -> Alcotest.failf "seed %d: invariant violated: %s" seed v);
  match Dgc_oracle.Oracle.table_violations eng with
  | [] -> ()
  | v :: _ -> Alcotest.failf "seed %d: table violation: %s" seed v

let prop_chaos =
  QCheck2.Test.make ~name:"chaos: crash/partition/churn stays safe and complete"
    ~count:6 ~print:string_of_int
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      (try chaos_run ~seed
       with Dgc_oracle.Oracle.Safety_violation m ->
         Alcotest.failf "seed %d: %s" seed m);
      true)

(* Regression: this seed once exposed lost parked messages — a parked
   base message redelivered into a NEW fault was silently dropped,
   leaving a stale source entry (completeness leak). The engine now
   re-parks such messages. *)
let test_chaos_regression_3328 () =
  try chaos_run ~seed:3328
  with Dgc_oracle.Oracle.Safety_violation m -> Alcotest.failf "unsafe: %s" m

(* Regression: QCHECK_SEED=5 draws this seed. Distance-sanity once put
   the target of an agent's remote reference at distance 0, not the 1
   that §3 gives an inter-site reference, and flagged the collector's
   correct estimates. *)
let test_chaos_regression_9751 () =
  try chaos_run ~seed:9751
  with Dgc_oracle.Oracle.Safety_violation m -> Alcotest.failf "unsafe: %s" m

(* Regression: a reference that reached a site during its trace window,
   at an outref the window's snapshot did not reach, lost that outref
   in the swap: the site was left with a heap field and no outref
   ("S0: field S0/o6 -> S1/o5 lacks an outref"). The window replay now
   keeps the outref of every remote arrival. *)
let test_chaos_regression_9927 () =
  try chaos_run ~seed:9927
  with Dgc_oracle.Oracle.Safety_violation m -> Alcotest.failf "unsafe: %s" m

(* Regression: a removal parked by a partition landed after the heal,
   behind the Insert of the outref its source had re-created meanwhile
   (base messages are not FIFO), and deleted the new source: S3 freed
   S3/o5 while an agent held it. Removals now carry the outref's
   incarnation and the owner ignores one older than the latest
   insert. *)
let test_chaos_regression_5991 () =
  try chaos_run ~seed:5991
  with Dgc_oracle.Oracle.Safety_violation m -> Alcotest.failf "unsafe: %s" m

let () =
  Alcotest.run "fuzz"
    [
      ( "races",
        [ QCheck_alcotest.to_alcotest ~long:true prop_race_fuzz ] );
      ( "chaos",
        [
          QCheck_alcotest.to_alcotest ~long:true prop_chaos;
          Alcotest.test_case "regression: reparked messages (seed 3328)"
            `Quick test_chaos_regression_3328;
          Alcotest.test_case "regression: remote app-root distance (seed 9751)"
            `Quick test_chaos_regression_9751;
          Alcotest.test_case "regression: window arrival keeps its outref (seed 9927)"
            `Quick test_chaos_regression_9927;
          Alcotest.test_case "regression: stale removal after re-insert (seed 5991)"
            `Quick test_chaos_regression_5991;
        ] );
    ]
