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

let max_site = (1 lsl 22) - 1
let max_index = (1 lsl 40) - 1

(* Small values collide often (equal sites, equal indices); large ones
   reach the top bits of both halves, and the bounds themselves. *)
let oid_parts_gen =
  QCheck2.Gen.(
    pair
      (oneof [ int_bound 3; int_bound max_site; pure max_site ])
      (oneof [ int_bound 3; int_bound max_index; pure max_index ]))

let prop_oid_packing =
  QCheck2.Test.make
    ~name:"oid round-trips, orders by (site, index), keeps its hash"
    ~count:500
    ~print:QCheck2.Print.(pair (pair int int) (pair int int))
    QCheck2.Gen.(pair oid_parts_gen oid_parts_gen)
    (fun ((sa, ia), (sb, ib)) ->
      let a = Oid.make ~site:(Site_id.of_int sa) ~index:ia in
      let b = Oid.make ~site:(Site_id.of_int sb) ~index:ib in
      let sign x = compare x 0 in
      Site_id.to_int (Oid.site a) = sa
      && Oid.index a = ia
      && sign (Oid.compare a b) = sign (compare (sa, ia) (sb, ib))
      && Oid.hash a = (sa * 1_000_003) + ia)

(* [to_string] is built by concatenation; it must print what [pp]
   prints. *)
let prop_oid_to_string =
  QCheck2.Test.make ~name:"Oid.to_string equals pp" ~count:500
    ~print:QCheck2.Print.(pair int int)
    oid_parts_gen
    (fun (site, index) ->
      let o = Oid.make ~site:(Site_id.of_int site) ~index in
      String.equal (Oid.to_string o) (Format.asprintf "%a" Oid.pp o))

let test_oid_range () =
  let rejects name site index =
    match Oid.make ~site:(Site_id.of_int site) ~index with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ()
  in
  rejects "site 2^22" (max_site + 1) 0;
  rejects "index 2^40" 0 (max_index + 1);
  rejects "index -1" 0 (-1);
  let top = Oid.make ~site:(Site_id.of_int max_site) ~index:max_index in
  Alcotest.(check int) "top site" max_site (Site_id.to_int (Oid.site top));
  Alcotest.(check int) "top index" max_index (Oid.index top);
  Alcotest.(check bool)
    "top sorts last" true
    (Oid.compare (Oid.make ~site:(Site_id.of_int max_site) ~index:0) top < 0)

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

(* Random operation sequences against a naive reference model: per
   local index, the exact field list (newest first) and size, plus a
   root set and a free count. A target choice at or above
   [remote_from] names a remote object at site 1. *)
type model_op =
  | M_alloc of int  (* size *)
  | M_add of int * int  (* obj choice, target choice *)
  | M_remove of int * int
  | M_clear of int
  | M_retarget of int * int  (* old target choice, fresh target choice *)
  | M_free of int
  | M_root of int

let remote_from = 24

let model_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (3, map (fun n -> M_alloc n) (int_range 1 4));
        (4, map2 (fun a b -> M_add (a, b)) (int_bound 30) (int_bound 30));
        (2, map2 (fun a b -> M_remove (a, b)) (int_bound 30) (int_bound 30));
        (1, map (fun a -> M_clear a) (int_bound 30));
        (1, map2 (fun a b -> M_retarget (a, b)) (int_bound 30) (int_bound 30));
        (2, map (fun a -> M_free a) (int_bound 30));
        (1, map (fun a -> M_root a) (int_bound 30));
      ])

let print_op = function
  | M_alloc n -> Printf.sprintf "alloc(%d)" n
  | M_add (a, b) -> Printf.sprintf "add(%d,%d)" a b
  | M_remove (a, b) -> Printf.sprintf "remove(%d,%d)" a b
  | M_clear a -> Printf.sprintf "clear(%d)" a
  | M_retarget (a, b) -> Printf.sprintf "retarget(%d,%d)" a b
  | M_free a -> Printf.sprintf "free(%d)" a
  | M_root a -> Printf.sprintf "root(%d)" a

type model = {
  m_fields : (int, Oid.t list) Hashtbl.t;  (** live index -> fields *)
  m_sizes : (int, int) Hashtbl.t;
  mutable m_roots : int list;
  mutable m_next : int;
  mutable m_frees : int;
}

let model_live m =
  Hashtbl.fold (fun k _ acc -> k :: acc) m.m_fields [] |> List.sort Int.compare

(* The CSR arrays a fresh capture of the model's heap must have. *)
let model_csr m =
  let bound = m.m_next in
  let fields i = Option.value ~default:[] (Hashtbl.find_opt m.m_fields i) in
  let start = Array.make (bound + 1) 0 in
  for i = 0 to bound - 1 do
    start.(i + 1) <- start.(i) + List.length (fields i)
  done;
  let codes = ref [] and pool = ref [] and n_pool = ref 0 in
  for i = 0 to bound - 1 do
    List.iter
      (fun r ->
        if Site_id.equal (Oid.site r) s0 && Oid.index r < bound then
          codes := Oid.index r :: !codes
        else begin
          pool := r :: !pool;
          incr n_pool;
          codes := - !n_pool :: !codes
        end)
      (fields i)
  done;
  let present = Bytes.make (max bound 1) '\000'
  and roots = Bytes.make (max bound 1) '\000' in
  List.iter (fun i -> Bytes.set present i '\001') (model_live m);
  List.iter (fun i -> Bytes.set roots i '\001') m.m_roots;
  (start, Array.of_list (List.rev !codes), Array.of_list (List.rev !pool),
   present, roots)

let prop_heap_matches_model =
  QCheck2.Test.make ~name:"heap matches a pure model" ~count:300
    ~print:QCheck2.Print.(list print_op)
    QCheck2.Gen.(list_size (int_bound 60) model_op_gen)
    (fun ops ->
      let h = Heap.create s0 in
      let m =
        { m_fields = Hashtbl.create 16; m_sizes = Hashtbl.create 16;
          m_roots = []; m_next = 0; m_frees = 0 }
      in
      let oid i = Oid.make ~site:s0 ~index:i in
      let existing choice =
        match model_live m with
        | [] -> None
        | l -> Some (List.nth l (choice mod List.length l))
      in
      let target choice =
        if choice >= remote_from then Some (Oid.make ~site:s1 ~index:choice)
        else Option.map oid (existing choice)
      in
      let check what b = if not b then failwith what in
      List.iter
        (fun op ->
          match op with
          | M_alloc size ->
              let r = Heap.alloc ~size h in
              check "alloc index" (Oid.index r = m.m_next);
              Hashtbl.replace m.m_fields m.m_next [];
              Hashtbl.replace m.m_sizes m.m_next size;
              m.m_next <- m.m_next + 1
          | M_add (a, b) -> (
              match (existing a, target b) with
              | Some x, Some y ->
                  Heap.add_field h ~obj:(oid x) ~target:y;
                  Hashtbl.replace m.m_fields x (y :: Hashtbl.find m.m_fields x)
              | _ -> ())
          | M_remove (a, b) -> (
              match (existing a, target b) with
              | Some x, Some y ->
                  let got = Heap.remove_field h ~obj:(oid x) ~target:y in
                  let rec drop_one = function
                    | [] -> None
                    | z :: tl when Oid.equal z y -> Some tl
                    | z :: tl -> Option.map (List.cons z) (drop_one tl)
                  in
                  let want = drop_one (Hashtbl.find m.m_fields x) in
                  Option.iter (Hashtbl.replace m.m_fields x) want;
                  check "remove result" (got = (want <> None))
              | _ -> ())
          | M_clear a ->
              Option.iter
                (fun x ->
                  Heap.clear_fields h (oid x);
                  Hashtbl.replace m.m_fields x [])
                (existing a)
          | M_retarget (a, b) -> (
              match (target a, target b) with
              | Some old_oid, Some fresh ->
                  Heap.retarget h ~old_oid ~fresh;
                  List.iter
                    (fun x ->
                      Hashtbl.replace m.m_fields x
                        (List.map
                           (fun z -> if Oid.equal z old_oid then fresh else z)
                           (Hashtbl.find m.m_fields x)))
                    (model_live m)
              | _ -> ())
          | M_free a ->
              Option.iter
                (fun x ->
                  let n = Heap.free h [ x ] in
                  if List.mem x m.m_roots then check "root kept" (n = 0)
                  else begin
                    check "freed" (n = 1);
                    Hashtbl.remove m.m_fields x;
                    Hashtbl.remove m.m_sizes x;
                    m.m_frees <- m.m_frees + 1
                  end)
                (existing a)
          | M_root a ->
              Option.iter
                (fun x ->
                  Heap.add_persistent_root h (oid x);
                  if not (List.mem x m.m_roots) then m.m_roots <- x :: m.m_roots)
                (existing a))
        ops;
      (* Final state comparison. *)
      let live = model_live m in
      check "indices" (Heap.indices h = live);
      check "object_count" (Heap.object_count h = List.length live);
      check "frees" (Heap.frees h = m.m_frees);
      check "bytes_resident"
        (Heap.bytes_resident h
        = List.fold_left (fun n i -> n + Hashtbl.find m.m_sizes i) 0 live);
      check "alloc_clock" (Heap.alloc_clock h = m.m_next);
      List.iter
        (fun i ->
          check "fields" (Heap.fields h (oid i) = Hashtbl.find m.m_fields i))
        live;
      (* [iter] visits live objects in ascending index order, each view
         carrying its fields and size. *)
      let visited = ref [] in
      Heap.iter h (fun o ->
          let i = Oid.index o.Heap.oid in
          check "view fields" (o.Heap.fields = Hashtbl.find m.m_fields i);
          check "view size" (o.Heap.size = Hashtbl.find m.m_sizes i);
          visited := i :: !visited);
      check "iter order" (List.rev !visited = live);
      let start, codes, pool, present, roots = model_csr m in
      let d = Dense.of_heap h in
      check "d_bound" (d.Dense.d_bound = m.m_next);
      check "d_count" (d.Dense.d_count = List.length live);
      check "d_start" (d.Dense.d_start = start);
      check "d_codes"
        (Array.sub d.Dense.d_codes 0 (Array.length codes) = codes);
      check "d_pool" (d.Dense.d_pool = pool);
      check "d_present" (Bytes.equal d.Dense.d_present present);
      check "d_roots" (Bytes.equal d.Dense.d_roots roots);
      List.sort Int.compare (List.map Oid.index (Heap.persistent_roots h))
      = List.sort Int.compare m.m_roots)

(* The heap keeps no per-object record: with [n] objects and [f]
   fields, everything it holds is a field-list slot and a size slot
   per index, one live byte per index and a 3-word cons cell per field
   (oids are immediate). [n] is a power of two, so the index arrays,
   which double, are exactly full. A boxed oid (3 words) or a
   per-object record (4+ words) would blow the bound. *)
let test_heap_memory_bound () =
  let n = 4096 and per = 2 in
  let h = Heap.create s0 in
  let objs = Array.init n (fun _ -> Heap.alloc h) in
  Array.iteri
    (fun i o ->
      for k = 1 to per do
        Heap.add_field h ~obj:o ~target:objs.((i + k) mod n)
      done)
    objs;
  let f = n * per in
  let words = Obj.reachable_words (Obj.repr h) in
  let bound = (3 * n) + (3 * f) + 64 in
  if words > bound then
    Alcotest.failf "heap of %d objects, %d fields holds %d words (bound %d)" n
      f words bound

let () =
  Alcotest.run "heap"
    [
      ( "oid",
        [
          Alcotest.test_case "basics" `Quick test_oid_basics;
          QCheck_alcotest.to_alcotest prop_oid_compare_equal_agree;
          QCheck_alcotest.to_alcotest prop_oid_packing;
          QCheck_alcotest.to_alcotest prop_oid_to_string;
          Alcotest.test_case "make rejects out-of-range parts" `Quick
            test_oid_range;
        ] );
      ( "heap",
        [
          Alcotest.test_case "alloc and fields" `Quick
            test_heap_alloc_and_fields;
          Alcotest.test_case "free and roots" `Quick test_heap_free_and_roots;
          Alcotest.test_case "indices and counts" `Quick
            test_heap_indices_and_counts;
          Alcotest.test_case "no per-object record" `Quick
            test_heap_memory_bound;
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
