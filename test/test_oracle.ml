(* The verification oracle itself: global reachability including
   agent variables and in-flight messages, the safety check, and
   table-integrity detection. *)

open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts

let s k = Site_id.of_int k

let cfg n =
  {
    Config.default with
    Config.n_sites = n;
    latency = Latency.Fixed (Sim_time.of_millis 10.);
  }

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_live_set_basics () =
  let eng = Engine.create (cfg 2) in
  let root = Builder.root_obj eng (s 0) in
  let a = Builder.obj eng (s 0) in
  let b = Builder.obj eng (s 1) in
  let orphan = Builder.obj eng (s 1) in
  Builder.link eng ~src:root ~dst:a;
  Builder.link eng ~src:a ~dst:b;
  let live = Dgc_oracle.Oracle.live_set eng in
  Alcotest.(check bool) "root live" true (Oid.Set.mem root live);
  Alcotest.(check bool) "a live" true (Oid.Set.mem a live);
  Alcotest.(check bool) "b live cross-site" true (Oid.Set.mem b live);
  Alcotest.(check bool) "orphan dead" false (Oid.Set.mem orphan live);
  Alcotest.(check int) "garbage count" 1 (Dgc_oracle.Oracle.garbage_count eng);
  Alcotest.(check (list int)) "garbage site" [ 1 ]
    (List.map Site_id.to_int
       (Site_id.Set.elements (Dgc_oracle.Oracle.cyclic_garbage_sites eng)))

let test_agent_vars_are_roots () =
  let eng = Engine.create (cfg 1) in
  let muts = Mutator.manager eng in
  let a = Mutator.spawn muts ~at:(s 0) in
  ignore (Mutator.new_obj a ~dst:"v");
  let o = Option.get (Mutator.var a "v") in
  Alcotest.(check bool) "var-held object is live" true
    (Oid.Set.mem o (Dgc_oracle.Oracle.live_set eng));
  ignore (Mutator.drop a "v");
  Alcotest.(check bool) "dropped object is garbage" false
    (Oid.Set.mem o (Dgc_oracle.Oracle.live_set eng))

(* Only an agent's remote reference holds S2/x; the agent travels from
   S0 to S1 and x rides in its Move. The Move flies at once, or parks
   behind a partition or a crash; after the heal or the recovery the
   redelivered copy is on the wire, and its references are roots until
   it lands. *)
let test_in_flight_refs_are_roots () =
  List.iter
    (fun (name, fault, restore) ->
      let eng = Engine.create (cfg 3) in
      let muts = Mutator.manager eng in
      let root = Builder.root_obj eng (s 0) in
      let x = Builder.obj eng (s 2) in
      Builder.link eng ~src:root ~dst:x;
      let beacon = Builder.root_obj eng (s 1) in
      Builder.link eng ~src:root ~dst:beacon;
      let a = Mutator.spawn muts ~at:(s 0) in
      ignore (Mutator.load_root a ~dst:"r");
      ignore (Mutator.read_field a ~obj:"r" ~idx:1 ~dst:"x");
      ignore (Mutator.read_field a ~obj:"r" ~idx:0 ~dst:"b");
      ignore (Mutator.drop a "r");
      Builder.unlink eng ~src:root ~dst:x;
      fault eng;
      ignore (Mutator.travel a ~via:"b" ~k:(fun () -> ()));
      let live () = Oid.Set.mem x (Dgc_oracle.Oracle.live_set eng) in
      Alcotest.(check bool) (name ^ ": x live in the sent move") true (live ());
      restore eng;
      Alcotest.(check bool) (name ^ ": still traveling") true
        (Mutator.traveling a);
      Alcotest.(check bool) (name ^ ": x live in the flying move") true
        (live ());
      Engine.run_for eng (Sim_time.of_seconds 2.);
      Alcotest.(check bool) (name ^ ": arrived") false (Mutator.traveling a);
      Alcotest.(check bool) (name ^ ": x live in the arrived variable") true
        (live ()))
    [
      ("no fault", ignore, ignore);
      ( "partition",
        (fun eng -> Engine.partition eng [ [ s 0 ]; [ s 1; s 2 ] ]),
        Engine.heal );
      ( "crash",
        (fun eng -> Engine.crash eng (s 1)),
        fun eng -> Engine.recover eng (s 1) );
    ]

(* §3: an agent variable at S0 holding S1/o is one inter-site
   reference, so S1/o is at distance 1, and the distance grows by one
   per further cross-site field only. *)
let test_remote_app_root_distance () =
  let eng = Engine.create (cfg 3) in
  let muts = Mutator.manager eng in
  let root = Builder.root_obj eng (s 0) in
  let o = Builder.obj eng (s 1) in
  let p = Builder.obj eng (s 1) in
  let q = Builder.obj eng (s 2) in
  Builder.link eng ~src:root ~dst:o;
  Builder.chain eng [ o; p; q ];
  let a = Mutator.spawn muts ~at:(s 0) in
  ignore (Mutator.load_root a ~dst:"r");
  ignore (Mutator.read_field a ~obj:"r" ~idx:0 ~dst:"o");
  ignore (Mutator.drop a "r");
  Builder.unlink eng ~src:root ~dst:o;
  let dist = Dgc_oracle.Oracle.distances eng in
  let d r = Oid.Tbl.find_opt dist r in
  Alcotest.(check (option int)) "persistent root" (Some 0) (d root);
  Alcotest.(check (option int)) "S1/o held by the S0 variable" (Some 1) (d o);
  Alcotest.(check (option int)) "local field keeps the distance" (Some 1) (d p);
  Alcotest.(check (option int)) "cross-site field adds one" (Some 2) (d q)

(* Brute-force reference for [Oracle.distances]: Bellman-Ford over the
   objects of random multi-site graphs, from a root list the test keeps
   itself — persistent roots at 0, app roots at 0 or (remote) 1, and
   the references of in-flight and parked Moves at 1. *)
let bellman_ford eng objs ~roots =
  let dist = Oid.Tbl.create 64 in
  let lower r d =
    match Oid.Tbl.find_opt dist r with
    | Some d' when d' <= d -> ()
    | _ -> Oid.Tbl.replace dist r d
  in
  List.iter (fun (r, d) -> lower r d) roots;
  let heap_of r = (Engine.site eng (Oid.site r)).Site.heap in
  List.iter
    (fun _ ->
      List.iter
        (fun r ->
          match Oid.Tbl.find_opt dist r with
          | None -> ()
          | Some d ->
              List.iter
                (fun z ->
                  let local = Site_id.equal (Oid.site z) (Oid.site r) in
                  lower z (if local then d else d + 1))
                (Heap.fields (heap_of r) r))
        objs)
    objs;
  dist

let prop_distances_match_bellman_ford =
  QCheck2.Test.make ~name:"distances = Bellman-Ford; live/garbage split"
    ~count:200 ~print:string_of_int
    QCheck2.Gen.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let n = 2 + Rng.int rng 3 in
      let eng = Engine.create (cfg n) in
      let objs =
        List.init (4 + Rng.int rng 20) (fun k ->
            if Rng.chance rng 0.1 then Builder.root_obj eng (s (k mod n))
            else Builder.obj eng (s (k mod n)))
      in
      let pick () = Rng.choose rng objs in
      for _ = 1 to List.length objs * 3 / 2 do
        let a = pick () and b = pick () in
        if not (Oid.equal a b) then Builder.link eng ~src:a ~dst:b
      done;
      let app =
        Array.init n (fun _ -> List.init (Rng.int rng 3) (fun _ -> pick ()))
      in
      Engine.set_extra_roots eng (fun id -> app.(Site_id.to_int id));
      (* Moves: the first in flight, the later ones possibly parked by
         a crash or a partition. *)
      let moved = ref [] in
      let move () =
        let src = s (Rng.int rng n) and dst = s (Rng.int rng n) in
        if not (Site_id.equal src dst) then begin
          let refs = List.init (1 + Rng.int rng 2) (fun _ -> pick ()) in
          moved := refs @ !moved;
          Engine.send eng ~src ~dst
            (Protocol.Move { agent = 0; refs; token = Engine.fresh_token eng })
        end
      in
      move ();
      if Rng.bool rng then Engine.crash eng (s (n - 1));
      if Rng.bool rng then Engine.partition eng [ [ s 0 ] ];
      move ();
      move ();
      let site_roots k =
        let heap = (Engine.site eng (s k)).Site.heap in
        List.map (fun r -> (r, 0)) (Heap.persistent_roots heap)
        @ List.map
            (fun r -> (r, if Site_id.equal (Oid.site r) (s k) then 0 else 1))
            app.(k)
      in
      let roots =
        List.concat (List.init n site_roots) @ List.map (fun r -> (r, 1)) !moved
      in
      let want = bellman_ford eng objs ~roots in
      let got = Dgc_oracle.Oracle.distances eng in
      let entries tbl =
        List.filter_map
          (fun r -> Option.map (fun d -> (r, d)) (Oid.Tbl.find_opt tbl r))
          objs
      in
      let reached = Oid.Set.of_list (List.map fst (entries want)) in
      entries got = entries want
      && Oid.Tbl.length got = Oid.Tbl.length want
      && Oid.Set.equal (Dgc_oracle.Oracle.live_set eng) reached
      && Oid.Set.equal
           (Dgc_oracle.Oracle.garbage_set eng)
           (Oid.Set.diff (Oid.Set.of_list objs) reached))

let test_check_would_free_raises () =
  let eng = Engine.create (cfg 1) in
  let root = Builder.root_obj eng (s 0) in
  let a = Builder.obj eng (s 0) in
  Builder.link eng ~src:root ~dst:a;
  let dead = Builder.obj eng (s 0) in
  (* Freeing the dead object is fine... *)
  Dgc_oracle.Oracle.check_would_free eng (s 0) [ Oid.index dead ];
  (* ...freeing the live one raises. *)
  Alcotest.(check bool) "live free detected" true
    (try
       Dgc_oracle.Oracle.check_would_free eng (s 0) [ Oid.index a ];
       false
     with Dgc_oracle.Oracle.Safety_violation _ -> true)

let test_assert_no_garbage () =
  let eng = Engine.create (cfg 1) in
  let _root = Builder.root_obj eng (s 0) in
  Dgc_oracle.Oracle.assert_no_garbage eng;
  let _orphan = Builder.obj eng (s 0) in
  Alcotest.(check bool) "garbage detected" true
    (try
       Dgc_oracle.Oracle.assert_no_garbage eng;
       false
     with Dgc_oracle.Oracle.Safety_violation _ -> true)

let test_table_violations_detect_corruption () =
  let eng = Engine.create (cfg 2) in
  let a = Builder.obj eng (s 0) in
  let b = Builder.obj eng (s 1) in
  Builder.link eng ~src:a ~dst:b;
  Alcotest.(check int) "consistent after builder" 0
    (List.length (Dgc_oracle.Oracle.table_violations eng));
  (* Corrupt: remove the outref behind the heap's back. *)
  Tables.remove_outref (Engine.site eng (s 0)).Site.tables b;
  let violations = Dgc_oracle.Oracle.table_violations eng in
  Alcotest.(check bool) "missing outref detected" true
    (List.exists
       (fun v -> contains v "lacks an outref" || contains v "no outref")
       violations)

let test_table_violations_detect_missing_source () =
  let eng = Engine.create (cfg 2) in
  let a = Builder.obj eng (s 0) in
  let b = Builder.obj eng (s 1) in
  Builder.link eng ~src:a ~dst:b;
  (match Tables.find_inref (Engine.site eng (s 1)).Site.tables b with
  | Some ir -> Tables.remove_source (Engine.site eng (s 1)).Site.tables ir (s 0)
  | None -> Alcotest.fail "inref missing");
  Alcotest.(check bool) "missing source detected" true
    (Dgc_oracle.Oracle.table_violations eng <> [])

let () =
  Alcotest.run "oracle"
    [
      ( "reachability",
        [
          Alcotest.test_case "basics" `Quick test_live_set_basics;
          Alcotest.test_case "agent variables" `Quick test_agent_vars_are_roots;
          Alcotest.test_case "in-flight references" `Quick
            test_in_flight_refs_are_roots;
          Alcotest.test_case "remote app-root distance" `Quick
            test_remote_app_root_distance;
          QCheck_alcotest.to_alcotest prop_distances_match_bellman_ford;
        ] );
      ( "checks",
        [
          Alcotest.test_case "check_would_free" `Quick
            test_check_would_free_raises;
          Alcotest.test_case "assert_no_garbage" `Quick test_assert_no_garbage;
          Alcotest.test_case "detect missing outref" `Quick
            test_table_violations_detect_corruption;
          Alcotest.test_case "detect missing source" `Quick
            test_table_violations_detect_missing_source;
        ] );
    ]
