(* Heap substrate: oids, object store, snapshots, local reachability,
   Tarjan SCC vs a brute-force oracle. *)

open Dgc_prelude
open Dgc_heap

let s0 = Site_id.of_int 0
let s1 = Site_id.of_int 1
let oid = Alcotest.testable Oid.pp Oid.equal

(* --- oids --------------------------------------------------------------- *)

let test_oid_basics () =
  let a = Oid.make ~site:s0 ~index:4 in
  let b = Oid.make ~site:s0 ~index:4 in
  let c = Oid.make ~site:s1 ~index:4 in
  let d = Oid.make ~site:s0 ~index:5 in
  Alcotest.(check bool) "equal" true (Oid.equal a b);
  Alcotest.(check bool) "site differs" false (Oid.equal a c);
  Alcotest.(check bool) "index differs" false (Oid.equal a d);
  Alcotest.(check int) "hash consistent" (Oid.hash a) (Oid.hash b);
  Alcotest.(check bool) "compare site first" true (Oid.compare a c < 0);
  Alcotest.(check string) "to_string" "S0/o4" (Oid.to_string a)

let prop_oid_compare_equal_agree =
  QCheck2.Test.make ~name:"oid compare 0 iff equal" ~count:200
    ~print:QCheck2.Print.(pair (pair int int) (pair int int))
    QCheck2.Gen.(pair (pair (int_bound 5) (int_bound 5)) (pair (int_bound 5) (int_bound 5)))
    (fun ((sa, ia), (sb, ib)) ->
      let a = Oid.make ~site:(Site_id.of_int sa) ~index:ia in
      let b = Oid.make ~site:(Site_id.of_int sb) ~index:ib in
      Oid.compare a b = 0 = Oid.equal a b)

(* --- heap --------------------------------------------------------------- *)

let test_heap_alloc_and_fields () =
  let h = Heap.create s0 in
  let a = Heap.alloc h in
  let b = Heap.alloc h in
  Alcotest.(check bool) "mem a" true (Heap.mem h a);
  Alcotest.(check bool) "foreign oid not mem" false
    (Heap.mem h (Oid.make ~site:s1 ~index:0));
  Heap.add_field h ~obj:a ~target:b;
  Heap.add_field h ~obj:a ~target:b;
  Alcotest.(check int) "duplicate fields kept" 2
    (List.length (Heap.fields h a));
  Alcotest.(check bool) "remove one" true (Heap.remove_field h ~obj:a ~target:b);
  Alcotest.(check int) "one left" 1 (List.length (Heap.fields h a));
  Alcotest.(check bool) "remove second" true
    (Heap.remove_field h ~obj:a ~target:b);
  Alcotest.(check bool) "nothing left to remove" false
    (Heap.remove_field h ~obj:a ~target:b);
  Heap.add_field h ~obj:a ~target:b;
  Heap.clear_fields h a;
  Alcotest.(check (list oid)) "cleared" [] (Heap.fields h a)

let test_heap_free_and_roots () =
  let h = Heap.create s0 in
  let a = Heap.alloc h in
  let b = Heap.alloc h in
  Heap.add_persistent_root h a;
  Heap.add_persistent_root h a;
  Alcotest.(check int) "root added once" 1
    (List.length (Heap.persistent_roots h));
  let freed = Heap.free h [ Oid.index a; Oid.index b; 999 ] in
  Alcotest.(check int) "only b freed (root kept, 999 ignored)" 1 freed;
  Alcotest.(check bool) "a alive" true (Heap.mem h a);
  Alcotest.(check bool) "b gone" false (Heap.mem h b);
  Alcotest.(check bool) "find b: None" true (Heap.find h b = None);
  Alcotest.(check int) "frees counted" 1 (Heap.frees h);
  Alcotest.(check int) "nothing to free: 0" 0 (Heap.free h []);
  let c = Heap.alloc h in
  let order = List.rev (Heap.fold h ~init:[] ~f:(fun acc o -> o.Heap.oid :: acc)) in
  Alcotest.(check (list string))
    "iter skips the freed index, ascending"
    [ Oid.to_string a; Oid.to_string c ]
    (List.map Oid.to_string order);
  Heap.iter h (fun o ->
      Alcotest.(check bool) "iter never yields b" false (Oid.equal o.Heap.oid b));
  Alcotest.check_raises "root must be local+alive"
    (Invalid_argument "Heap.add_persistent_root: not a live local object")
    (fun () -> Heap.add_persistent_root h b)

let test_heap_indices_and_counts () =
  let h = Heap.create s0 in
  let objs = List.init 5 (fun _ -> Heap.alloc h) in
  Alcotest.(check int) "count" 5 (Heap.object_count h);
  Alcotest.(check (list int)) "indices ascending" [ 0; 1; 2; 3; 4 ]
    (Heap.indices h);
  ignore (Heap.free h [ 2 ]);
  Alcotest.(check (list int)) "after free" [ 0; 1; 3; 4 ] (Heap.indices h);
  Alcotest.(check int) "alloc clock unaffected by free" 5 (Heap.alloc_clock h);
  ignore objs

(* --- snapshot ------------------------------------------------------------ *)

let test_snapshot_immutable () =
  let h = Heap.create s0 in
  let a = Heap.alloc h and b = Heap.alloc h and c = Heap.alloc h in
  let r = Oid.make ~site:s1 ~index:4 in
  Heap.add_field h ~obj:a ~target:b;
  Heap.add_field h ~obj:a ~target:r;
  Heap.add_field h ~obj:b ~target:c;
  Heap.add_field h ~obj:c ~target:a;
  let snap = Snapshot.take h in
  (* Every mutation after capture leaves the snapshot as captured. *)
  let check_captured after =
    List.iter
      (fun (o, fields) ->
        Alcotest.(check bool) (after ^ ": member") true (Snapshot.mem snap o);
        Alcotest.(check (list oid)) (after ^ ": fields") fields
          (Snapshot.fields snap o))
      [ (a, [ r; b ]); (b, [ c ]); (c, [ a ]) ];
    Alcotest.(check int) (after ^ ": clock") 3 (Snapshot.alloc_clock snap);
    Alcotest.(check int) (after ^ ": object count") 3
      (Snapshot.object_count snap)
  in
  check_captured "capture";
  Heap.add_field h ~obj:b ~target:a;
  check_captured "add_field";
  ignore (Heap.remove_field h ~obj:a ~target:b);
  check_captured "remove_field";
  Heap.clear_fields h c;
  check_captured "clear_fields";
  let d = Heap.alloc h in
  Heap.add_field h ~obj:d ~target:a;
  check_captured "alloc";
  Alcotest.(check bool) "snapshot lacks new object" false (Snapshot.mem snap d);
  Alcotest.(check (list oid)) "no fields for new object" []
    (Snapshot.fields snap d);
  Alcotest.(check int) "free" 1 (Heap.free h [ Oid.index b ]);
  check_captured "free"

(* --- reachability --------------------------------------------------------- *)

let test_reach_closure () =
  let h = Heap.create s0 in
  let a = Heap.alloc h and b = Heap.alloc h and c = Heap.alloc h in
  let r = Oid.make ~site:s1 ~index:7 in
  Heap.add_field h ~obj:a ~target:b;
  Heap.add_field h ~obj:b ~target:r;
  Heap.add_field h ~obj:c ~target:a;
  (* c unreachable from a *)
  let locals, remotes = Reach.closure (Dense.of_heap h) ~from:[ a ] in
  Alcotest.(check bool) "a in" true (Oid.Set.mem a locals);
  Alcotest.(check bool) "b in" true (Oid.Set.mem b locals);
  Alcotest.(check bool) "c out" false (Oid.Set.mem c locals);
  Alcotest.(check bool) "remote collected" true (Oid.Set.mem r remotes);
  (* starting at a remote ref *)
  let locals2, remotes2 = Reach.closure (Dense.of_heap h) ~from:[ r ] in
  Alcotest.(check int) "no locals from remote" 0 (Oid.Set.cardinal locals2);
  Alcotest.(check bool) "remote itself" true (Oid.Set.mem r remotes2)

let test_reach_cycle_terminates () =
  let h = Heap.create s0 in
  let a = Heap.alloc h and b = Heap.alloc h in
  Heap.add_field h ~obj:a ~target:b;
  Heap.add_field h ~obj:b ~target:a;
  let locals, _ = Reach.closure (Dense.of_heap h) ~from:[ a ] in
  Alcotest.(check int) "cycle closed" 2 (Oid.Set.cardinal locals);
  Alcotest.(check bool) "reaches itself" true
    (Reach.reaches (Dense.of_heap h) ~src:a ~dst:a)

(* --- SCC ------------------------------------------------------------------ *)

let brute_scc ~n ~succ =
  (* reach.(i).(j) via DFS *)
  let reach = Array.make_matrix n n false in
  for i = 0 to n - 1 do
    let rec go j =
      List.iter
        (fun k ->
          if k >= 0 && k < n && not reach.(i).(k) then begin
            reach.(i).(k) <- true;
            go k
          end)
        (succ j)
    in
    go i
  done;
  (* same component iff mutually reachable (or equal) *)
  fun a b -> a = b || (reach.(a).(b) && reach.(b).(a))

let check_scc_against_brute ~n ~succ =
  let res = Scc.tarjan ~n ~succ in
  let same = brute_scc ~n ~succ in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      let got = res.Scc.component.(a) = res.Scc.component.(b) in
      if got <> same a b then
        Alcotest.failf "scc mismatch for %d,%d (got %b want %b)" a b got
          (same a b)
    done
  done

let test_scc_basic () =
  (* 0 -> 1 -> 2 -> 0 (one SCC), 3 -> 0 (alone), 4 self-loop *)
  let succ = function
    | 0 -> [ 1 ]
    | 1 -> [ 2 ]
    | 2 -> [ 0 ]
    | 3 -> [ 0 ]
    | 4 -> [ 4 ]
    | _ -> []
  in
  check_scc_against_brute ~n:5 ~succ;
  let res = Scc.tarjan ~n:5 ~succ in
  Alcotest.(check int) "three components" 3 res.Scc.count

let test_scc_chain () =
  let succ i = if i < 9 then [ i + 1 ] else [] in
  let res = Scc.tarjan ~n:10 ~succ in
  Alcotest.(check int) "all singletons" 10 res.Scc.count

let test_scc_deep_no_stack_overflow () =
  (* A 200k-node chain would blow a naive recursion. *)
  let n = 200_000 in
  let succ i = if i < n - 1 then [ i + 1 ] else [ 0 ] in
  let res = Scc.tarjan ~n ~succ in
  Alcotest.(check int) "single giant cycle" 1 res.Scc.count

let prop_scc_matches_brute =
  QCheck2.Test.make ~name:"tarjan matches brute force" ~count:200
    ~print:QCheck2.Print.(pair int (list (pair int int)))
    QCheck2.Gen.(
      pair (int_range 1 10) (list_size (int_bound 25) (pair (int_bound 9) (int_bound 9))))
    (fun (n, edges) ->
      let succ i =
        List.filter_map
          (fun (a, b) -> if a mod n = i && b < n then Some b else None)
          edges
      in
      check_scc_against_brute ~n ~succ;
      true)

let test_condensation_is_acyclic () =
  let succ = function
    | 0 -> [ 1; 3 ]
    | 1 -> [ 2 ]
    | 2 -> [ 0; 4 ]
    | 3 -> [ 4 ]
    | 4 -> [ 5 ]
    | 5 -> [ 4 ]
    | _ -> []
  in
  let res, dag = Scc.condensation ~n:6 ~succ in
  Alcotest.(check int) "components" 3 res.Scc.count;
  (* check no cycles in the condensed graph *)
  let n = res.Scc.count in
  let visited = Array.make n 0 in
  let rec acyclic c =
    if visited.(c) = 1 then false
    else if visited.(c) = 2 then true
    else begin
      visited.(c) <- 1;
      let ok = List.for_all acyclic dag.(c) in
      visited.(c) <- 2;
      ok
    end
  in
  Alcotest.(check bool) "condensation acyclic" true
    (List.for_all acyclic (List.init n (fun i -> i)))

(* Local reachability against a brute-force BFS over the same heap. *)
let prop_closure_matches_bfs =
  QCheck2.Test.make ~name:"Reach.closure matches brute-force BFS" ~count:200
    ~print:QCheck2.Print.(pair int (list (pair int int)))
    QCheck2.Gen.(
      pair (int_range 1 15)
        (list_size (int_bound 40) (pair (int_bound 14) (int_bound 16))))
    (fun (n, edges) ->
      let h = Heap.create s0 in
      let objs = Array.init n (fun _ -> Heap.alloc h) in
      let remote j = Oid.make ~site:s1 ~index:j in
      (* targets >= n become remote references *)
      List.iter
        (fun (a, b) ->
          let src = objs.(a mod n) in
          let dst = if b < n then objs.(b) else remote b in
          Heap.add_field h ~obj:src ~target:dst)
        edges;
      let start = objs.(0) in
      let locals, remotes = Reach.closure (Dense.of_heap h) ~from:[ start ] in
      (* brute force *)
      let seen = Array.make n false in
      let rem = ref Oid.Set.empty in
      let rec bfs i =
        if not seen.(i) then begin
          seen.(i) <- true;
          List.iter
            (fun z ->
              if Site_id.equal (Oid.site z) s0 then bfs (Oid.index z)
              else rem := Oid.Set.add z !rem)
            (Heap.fields h objs.(i))
        end
      in
      bfs 0;
      let want_locals =
        Array.to_list objs |> List.filteri (fun i _ -> seen.(i))
      in
      Oid.Set.equal locals (Oid.Set.of_list want_locals)
      && Oid.Set.equal remotes !rem)

(* --- model-based heap property -------------------------------------------- *)

(* Random operation sequences against a pure reference model: an
   association list of index -> field list, plus a root set. *)
type model_op =
  | M_alloc
  | M_add of int * int  (* obj choice, target choice *)
  | M_remove of int * int
  | M_clear of int
  | M_free of int
  | M_root of int

let model_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (3, return M_alloc);
        (4, map2 (fun a b -> M_add (a, b)) (int_bound 30) (int_bound 30));
        (2, map2 (fun a b -> M_remove (a, b)) (int_bound 30) (int_bound 30));
        (1, map (fun a -> M_clear a) (int_bound 30));
        (2, map (fun a -> M_free a) (int_bound 30));
        (1, map (fun a -> M_root a) (int_bound 30));
      ])

let print_op = function
  | M_alloc -> "alloc"
  | M_add (a, b) -> Printf.sprintf "add(%d,%d)" a b
  | M_remove (a, b) -> Printf.sprintf "remove(%d,%d)" a b
  | M_clear a -> Printf.sprintf "clear(%d)" a
  | M_free a -> Printf.sprintf "free(%d)" a
  | M_root a -> Printf.sprintf "root(%d)" a

let prop_heap_matches_model =
  QCheck2.Test.make ~name:"heap matches a pure model" ~count:300
    ~print:QCheck2.Print.(list print_op)
    QCheck2.Gen.(list_size (int_bound 60) model_op_gen)
    (fun ops ->
      let h = Heap.create s0 in
      let model : (int, int list ref) Hashtbl.t = Hashtbl.create 16 in
      let roots = ref [] in
      let next = ref 0 in
      let existing choice =
        let live = Hashtbl.fold (fun k _ acc -> k :: acc) model [] in
        match List.sort Int.compare live with
        | [] -> None
        | l -> Some (List.nth l (choice mod List.length l))
      in
      let oid i = Oid.make ~site:s0 ~index:i in
      List.iter
        (fun op ->
          match op with
          | M_alloc ->
              let r = Heap.alloc h in
              assert (Oid.index r = !next);
              Hashtbl.add model !next (ref []);
              incr next
          | M_add (a, b) -> begin
              match (existing a, existing b) with
              | Some x, Some y ->
                  Heap.add_field h ~obj:(oid x) ~target:(oid y);
                  let fl = Hashtbl.find model x in
                  fl := y :: !fl
              | _ -> ()
            end
          | M_remove (a, b) -> begin
              match (existing a, existing b) with
              | Some x, Some y ->
                  let got = Heap.remove_field h ~obj:(oid x) ~target:(oid y) in
                  let fl = Hashtbl.find model x in
                  let removed = ref false in
                  fl :=
                    List.filter
                      (fun z ->
                        if (not !removed) && z = y then begin
                          removed := true;
                          false
                        end
                        else true)
                      !fl;
                  if got <> !removed then failwith "remove disagreement"
              | _ -> ()
            end
          | M_clear a -> begin
              match existing a with
              | Some x ->
                  Heap.clear_fields h (oid x);
                  Hashtbl.find model x := []
              | None -> ()
            end
          | M_free a -> begin
              match existing a with
              | Some x ->
                  let n = Heap.free h [ x ] in
                  if List.mem x !roots then assert (n = 0)
                  else begin
                    assert (n = 1);
                    Hashtbl.remove model x
                  end
              | None -> ()
            end
          | M_root a -> begin
              match existing a with
              | Some x ->
                  Heap.add_persistent_root h (oid x);
                  if not (List.mem x !roots) then roots := x :: !roots
              | None -> ()
            end)
        ops;
      (* Final state comparison. *)
      let model_indices =
        Hashtbl.fold (fun k _ acc -> k :: acc) model [] |> List.sort Int.compare
      in
      if Heap.indices h <> model_indices then failwith "index sets differ";
      Hashtbl.iter
        (fun x fl ->
          let got =
            List.map Oid.index (Heap.fields h (oid x)) |> List.sort Int.compare
          in
          let want = List.sort Int.compare !fl in
          if got <> want then failwith "fields differ")
        model;
      List.length (Heap.persistent_roots h) = List.length !roots)

let () =
  Alcotest.run "heap"
    [
      ( "oid",
        [
          Alcotest.test_case "basics" `Quick test_oid_basics;
          QCheck_alcotest.to_alcotest prop_oid_compare_equal_agree;
        ] );
      ( "heap",
        [
          Alcotest.test_case "alloc and fields" `Quick
            test_heap_alloc_and_fields;
          Alcotest.test_case "free and roots" `Quick test_heap_free_and_roots;
          Alcotest.test_case "indices and counts" `Quick
            test_heap_indices_and_counts;
        ] );
      ( "snapshot",
        [ Alcotest.test_case "immutability" `Quick test_snapshot_immutable ] );
      ("model", [ QCheck_alcotest.to_alcotest prop_heap_matches_model ]);
      ( "reach",
        [
          Alcotest.test_case "closure" `Quick test_reach_closure;
          Alcotest.test_case "cycles terminate" `Quick
            test_reach_cycle_terminates;
          QCheck_alcotest.to_alcotest prop_closure_matches_bfs;
        ] );
      ( "scc",
        [
          Alcotest.test_case "basic shapes" `Quick test_scc_basic;
          Alcotest.test_case "chain" `Quick test_scc_chain;
          Alcotest.test_case "200k nodes, constant stack" `Slow
            test_scc_deep_no_stack_overflow;
          QCheck_alcotest.to_alcotest prop_scc_matches_brute;
          Alcotest.test_case "condensation acyclic" `Quick
            test_condensation_is_acyclic;
        ] );
    ]
