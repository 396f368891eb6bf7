(* Substrate: ids, rng, time, event queue, latency models, metrics. *)

open Dgc_prelude
open Dgc_simcore

(* --- ids ---------------------------------------------------------------- *)

let test_site_id () =
  let a = Site_id.of_int 3 and b = Site_id.of_int 3 and c = Site_id.of_int 4 in
  Alcotest.(check bool) "equal" true (Site_id.equal a b);
  Alcotest.(check bool) "not equal" false (Site_id.equal a c);
  Alcotest.(check int) "compare" 0 (Site_id.compare a b);
  Alcotest.(check bool) "ordered" true (Site_id.compare a c < 0);
  Alcotest.(check string) "pp" "S3" (Format.asprintf "%a" Site_id.pp a);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Site_id.of_int: negative") (fun () ->
      ignore (Site_id.of_int (-1)))

let test_trace_id () =
  let t1 = Trace_id.make ~initiator:(Site_id.of_int 1) ~seq:4 in
  let t2 = Trace_id.make ~initiator:(Site_id.of_int 1) ~seq:5 in
  let t3 = Trace_id.make ~initiator:(Site_id.of_int 2) ~seq:4 in
  Alcotest.(check bool) "equal self" true (Trace_id.equal t1 t1);
  Alcotest.(check bool) "seq distinguishes" false (Trace_id.equal t1 t2);
  Alcotest.(check bool) "site distinguishes" false (Trace_id.equal t1 t3);
  Alcotest.(check bool) "order by site first" true (Trace_id.compare t2 t3 < 0);
  let s = Trace_id.Set.of_list [ t1; t2; t3; t1 ] in
  Alcotest.(check int) "set dedups" 3 (Trace_id.Set.cardinal s)

(* [to_string] is built by concatenation; it must print what [pp]
   prints, at the extremes of both parts too. *)
let prop_trace_id_to_string =
  QCheck2.Test.make ~name:"Trace_id.to_string equals pp" ~count:500
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(
      pair
        (oneof [ int_bound 3; int_bound max_int; pure max_int ])
        (oneof [ int_bound 3; int; pure max_int; pure min_int ]))
    (fun (site, seq) ->
      let t = Trace_id.make ~initiator:(Site_id.of_int site) ~seq in
      String.equal (Trace_id.to_string t) (Format.asprintf "%a" Trace_id.pp t))

(* --- rng ---------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:11 and b = Rng.create ~seed:11 in
  let xs = List.init 50 (fun _ -> Rng.int a 1000) in
  let ys = List.init 50 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys

let test_rng_split_independent () =
  let a = Rng.create ~seed:11 in
  let child = Rng.split a in
  let before = List.init 10 (fun _ -> Rng.int child 1000) in
  (* Drawing more from the parent must not change a fresh child-like
     stream derived the same way from an identical parent. *)
  let a2 = Rng.create ~seed:11 in
  let child2 = Rng.split a2 in
  let again = List.init 10 (fun _ -> Rng.int child2 1000) in
  Alcotest.(check (list int)) "derivation deterministic" before again

let test_rng_bounds () =
  let r = Rng.create ~seed:3 in
  for _ = 1 to 200 do
    let x = Rng.int_in r 5 9 in
    Alcotest.(check bool) "int_in bounds" true (x >= 5 && x <= 9);
    let f = Rng.float_in r 1.5 2.5 in
    Alcotest.(check bool) "float_in bounds" true (f >= 1.5 && f < 2.5)
  done;
  Alcotest.check_raises "empty choose"
    (Invalid_argument "Rng.choose: empty list") (fun () ->
      ignore (Rng.choose r []))

let test_rng_permutation () =
  let r = Rng.create ~seed:5 in
  let p = Rng.permutation r 20 in
  let sorted = Array.copy p in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "permutation of 0..n-1"
    (Array.init 20 (fun i -> i))
    sorted

let test_rng_chance_extremes () =
  let r = Rng.create ~seed:9 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=1 always true" true (Rng.chance r 1.0);
    Alcotest.(check bool) "p=0 always false" false (Rng.chance r 0.0)
  done

(* --- util --------------------------------------------------------------- *)

let test_util_lists () =
  Alcotest.(check int) "sum" 6 (Util.list_sum (fun x -> x) [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "take" [ 1; 2 ] (Util.list_take 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "take beyond" [ 1 ] (Util.list_take 5 [ 1 ]);
  Alcotest.(check (list int))
    "dedup" [ 1; 2; 3 ]
    (Util.list_dedup ~compare:Int.compare [ 3; 1; 2; 1; 3 ])

(* --- time --------------------------------------------------------------- *)

let test_time () =
  let t = Sim_time.of_millis 1500. in
  Alcotest.(check (float 1e-9)) "millis" 1.5 (Sim_time.to_seconds t);
  Alcotest.(check (float 1e-9)) "minutes" 120.
    (Sim_time.to_seconds (Sim_time.of_minutes 2.));
  Alcotest.(check (float 1e-9)) "sub saturates" 0.
    (Sim_time.to_seconds (Sim_time.sub (Sim_time.of_seconds 1.) (Sim_time.of_seconds 2.)));
  Alcotest.(check bool) "order" true Sim_time.(Sim_time.zero < t)

(* --- event queue --------------------------------------------------------- *)

(* The earliest event with its time, [None] if the queue is empty. *)
let pop q =
  if Event_queue.is_empty q then None
  else
    let at = Event_queue.min_time q in
    Some (at, Event_queue.pop_min q)

let test_queue_ordering () =
  let q = Event_queue.create ~dummy:"" in
  Event_queue.push q ~at:3. "c";
  Event_queue.push q ~at:1. "a";
  Event_queue.push q ~at:2. "b";
  let pop () =
    match pop q with Some (_, x) -> x | None -> "empty"
  in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ]
    [ first; second; third ];
  Alcotest.(check bool) "now empty" true (Event_queue.is_empty q)

let test_queue_fifo_ties () =
  let q = Event_queue.create ~dummy:"" in
  List.iter (fun x -> Event_queue.push q ~at:1. x) [ "x"; "y"; "z" ];
  let out = List.init 3 (fun _ ->
      match pop q with Some (_, v) -> v | None -> "?")
  in
  Alcotest.(check (list string)) "insertion order on ties" [ "x"; "y"; "z" ]
    out

let prop_queue_sorted =
  QCheck2.Test.make ~name:"event queue pops sorted" ~count:300
    ~print:QCheck2.Print.(list (pair float unit))
    QCheck2.Gen.(list (pair (float_bound_exclusive 1000.) unit))
    (fun entries ->
      let q = Event_queue.create ~dummy:() in
      List.iter (fun (t, ()) -> Event_queue.push q ~at:(Float.abs t) ()) entries;
      let rec drain last =
        match pop q with
        | None -> true
        | Some (t, ()) -> if t < last then false else drain t
      in
      drain neg_infinity)

let test_queue_interleaved () =
  let q = Event_queue.create ~dummy:0 in
  Event_queue.push q ~at:5. 5;
  Event_queue.push q ~at:1. 1;
  (match pop q with
  | Some (_, 1) -> ()
  | _ -> Alcotest.fail "expected 1");
  Event_queue.push q ~at:2. 2;
  Event_queue.push q ~at:7. 7;
  let rest =
    List.init 3 (fun _ ->
        match pop q with Some (_, v) -> v | None -> -1)
  in
  Alcotest.(check (list int)) "interleaved pushes" [ 2; 5; 7 ] rest;
  Alcotest.(check int) "length" 0 (Event_queue.length q)

(* Model-based laws. Times come from a tiny range so ties are the
   common case, and the payload is the list index so insertion order
   is observable. The reference model is a stable sort by time:
   earliest first, ties in insertion order. *)

let drain_all q =
  let rec go acc =
    match pop q with None -> List.rev acc | Some e -> go (e :: acc)
  in
  go []

let queue_of times =
  let evs =
    List.mapi (fun i t -> (Sim_time.of_millis (float_of_int t), i)) times
  in
  let q = Event_queue.create ~dummy:(-1) in
  List.iter (fun (at, p) -> Event_queue.push q ~at p) evs;
  (q, List.stable_sort (fun (a, _) (b, _) -> Sim_time.compare a b) evs)

let times_arb = QCheck.(list_of_size Gen.(0 -- 40) (int_bound 4))

let prop_drain_is_stable_sort =
  QCheck.Test.make ~count:500 ~name:"drain = stable sort by time" times_arb
    (fun times ->
      let q, model = queue_of times in
      drain_all q = model)

(* [pop_nth] is the schedule explorer's deviation primitive: it removes
   exactly the n-th event and every survivor keeps its position and
   tie-break order. *)
let prop_pop_nth_preserves_order =
  QCheck.Test.make ~count:500 ~name:"pop_nth removes nth; survivors keep order"
    QCheck.(pair times_arb (int_bound 45))
    (fun (times, n) ->
      let q, model = queue_of times in
      match Event_queue.pop_nth q n with
      | None -> n >= List.length model && drain_all q = model
      | Some e ->
          e = List.nth model n
          && drain_all q = List.filteri (fun i _ -> i <> n) model)

(* Random interleavings of every operation against a reference list
   sorted by (time, insertion order), with repeated times. Payloads are
   insertion numbers, so a tie broken by time alone shows. *)
type q_op = Q_push of int | Q_pop_nth of int | Q_pop_min | Q_min_time | Q_length

let print_q_op = function
  | Q_push t -> Printf.sprintf "push %d" t
  | Q_pop_nth k -> Printf.sprintf "pop_nth %d" k
  | Q_pop_min -> "pop_min"
  | Q_min_time -> "min_time"
  | Q_length -> "length"

let q_op_gen =
  let open QCheck2.Gen in
  frequency
    [
      (5, map (fun t -> Q_push t) (int_bound 3));
      (2, map (fun k -> Q_pop_nth k) (int_bound 5));
      (4, return Q_pop_min);
      (1, return Q_min_time);
      (1, return Q_length);
    ]

let prop_queue_ops_match_reference =
  QCheck2.Test.make ~name:"random ops match a sorted reference" ~count:500
    ~print:QCheck2.Print.(list print_q_op)
    QCheck2.Gen.(list_size (int_bound 80) q_op_gen)
    (fun ops ->
      let q = Event_queue.create ~dummy:(-1) in
      let model = ref [] and next = ref 0 in
      let take k =
        match List.nth_opt !model k with
        | None -> None
        | Some e ->
            model := List.filteri (fun i _ -> i <> k) !model;
            Some e
      in
      let step = function
        | Q_push t ->
            let at = float_of_int t in
            Event_queue.push q ~at !next;
            model :=
              List.stable_sort
                (fun (a, _) (b, _) -> Float.compare a b)
                (!model @ [ (at, !next) ]);
            incr next;
            true
        | Q_pop_nth k ->
            let got = Event_queue.pop_nth q k in
            got = take k
        | Q_pop_min -> (
            match take 0 with
            | None -> Event_queue.is_empty q
            | Some (at, p) ->
                let at' = Event_queue.min_time q in
                at' = at && Event_queue.pop_min q = p)
        | Q_min_time -> (
            match List.nth_opt !model 0 with
            | None -> Event_queue.is_empty q
            | Some (at, _) -> Event_queue.min_time q = at)
        | Q_length -> Event_queue.length q = List.length !model
      in
      List.for_all step ops && drain_all q = !model)

(* A popped payload is not kept alive by the queue: popped as the
   minimum with others left, as the last one, or by [pop_nth]. *)
let popped_payload_collected ~others pop =
  let q = Event_queue.create ~dummy:(ref 0) in
  let w = Weak.create 1 in
  let[@inline never] fill_and_pop () =
    let p = ref 0 in
    Weak.set w 0 (Some p);
    Event_queue.push q ~at:1. p;
    List.iter (fun at -> Event_queue.push q ~at (ref 0)) others;
    pop q
  in
  fill_and_pop ();
  Gc.full_major ();
  let collected = not (Weak.check w 0) in
  (* The queue itself stays reachable until after the check. *)
  ignore (Sys.opaque_identity (Event_queue.length q));
  collected

let test_queue_releases_popped () =
  List.iter
    (fun (what, others, pop) ->
      Alcotest.(check bool) what true (popped_payload_collected ~others pop))
    [
      ("pop_min, others left", [ 2.; 3.; 4. ], fun q -> ignore (Event_queue.pop_min q));
      ("pop_min, queue drained", [], fun q -> ignore (Event_queue.pop_min q));
      ("pop_min, out-of-order pushes", [ 2.; 1.5 ], fun q -> ignore (Event_queue.pop_min q));
      ("pop_nth 1", [ 0.; 2.; 3. ], fun q -> ignore (Event_queue.pop_nth q 1));
    ]

(* --- latency -------------------------------------------------------------- *)

let test_latency () =
  let r = Rng.create ~seed:2 in
  Alcotest.(check (float 1e-9)) "fixed" 0.25
    (Latency.sample r (Latency.Fixed 0.25));
  for _ = 1 to 100 do
    let x = Latency.sample r (Latency.Uniform (0.1, 0.2)) in
    Alcotest.(check bool) "uniform bounds" true (x >= 0.1 && x < 0.2);
    let e = Latency.sample r (Latency.Exponential 0.05) in
    Alcotest.(check bool) "exp positive" true (e >= 0.)
  done;
  Alcotest.(check (float 1e-9)) "uniform mean" 0.15
    (Latency.mean (Latency.Uniform (0.1, 0.2)))

(* --- journal --------------------------------------------------------------- *)

let entry ?(level = Journal.Info) at cat text =
  { Journal.at; level; cat; text }

let texts = List.map (fun e -> e.Journal.text)

let test_journal_basics () =
  let j = Journal.create ~capacity:4 () in
  Journal.add j (entry 1. "a" "one");
  Journal.add j (entry ~level:Journal.Warn 2. "b" "two");
  Journal.add j (entry 3. "a" "three");
  Alcotest.(check (list string)) "oldest first" [ "one"; "two"; "three" ]
    (texts (Journal.entries j));
  Alcotest.(check (list string)) "category filter" [ "one"; "three" ]
    (texts (Journal.entries ~cat:"a" j));
  Alcotest.(check (list string)) "severity filter" [ "two" ]
    (texts (Journal.entries ~min_level:Journal.Warn j));
  Alcotest.(check (list string)) "last after filtering" [ "three" ]
    (texts (Journal.entries ~cat:"a" ~last:1 j))

let test_journal_ring_wraps () =
  let j = Journal.create ~capacity:3 () in
  for i = 1 to 10 do
    Journal.add j (entry (float_of_int i) "t" (string_of_int i))
  done;
  Alcotest.(check (list string)) "the newest three, oldest first"
    [ "8"; "9"; "10" ] (texts (Journal.entries j));
  Alcotest.(check (list string)) "last filter" [ "9"; "10" ]
    (texts (Journal.entries ~last:2 j))

(* The buffer grows by doubling up to its capacity, so the boundaries
   are one short of full, full, one past full and several wraps, at a
   capacity below the first buffer (1), equal to it (16) and one past
   it (17, which grows at 16 entries). A ring that grew when its write
   cursor wrapped instead of when it was full would overwrite entry 0
   at the growth. *)
let test_journal_growth_boundaries () =
  List.iter
    (fun cap ->
      List.iter
        (fun n ->
          let j = Journal.create ~capacity:cap () in
          for i = 1 to n do
            Journal.add j (entry (float_of_int i) "t" (string_of_int i))
          done;
          let kept = min n cap in
          Alcotest.(check (list string))
            (Printf.sprintf "capacity %d, %d entries: the newest %d" cap n kept)
            (List.init kept (fun i -> string_of_int (n - kept + 1 + i)))
            (texts (Journal.entries j)))
        [ cap - 1; cap; cap + 1; 3 * cap ])
    [ 1; 16; 17 ]

(* --- metrics --------------------------------------------------------------- *)

let test_metrics () =
  let m = Metrics.create () in
  Metrics.incr m "a";
  Metrics.incr m "a";
  Metrics.add m "b" 5;
  Alcotest.(check int) "incr" 2 (Metrics.get m "a");
  Alcotest.(check int) "add" 5 (Metrics.get m "b");
  Alcotest.(check int) "absent" 0 (Metrics.get m "zzz");
  Alcotest.(check (list (pair string int)))
    "counters sorted"
    [ ("a", 2); ("b", 5) ]
    (Metrics.counters m)

let () =
  Alcotest.run "substrate"
    [
      ( "ids",
        [
          Alcotest.test_case "site ids" `Quick test_site_id;
          Alcotest.test_case "trace ids" `Quick test_trace_id;
          QCheck_alcotest.to_alcotest prop_trace_id_to_string;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split derivation" `Quick
            test_rng_split_independent;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "permutation" `Quick test_rng_permutation;
          Alcotest.test_case "chance extremes" `Quick test_rng_chance_extremes;
        ] );
      ("util", [ Alcotest.test_case "list helpers" `Quick test_util_lists ]);
      ("time", [ Alcotest.test_case "arithmetic" `Quick test_time ]);
      ( "event-queue",
        [
          Alcotest.test_case "ordering" `Quick test_queue_ordering;
          Alcotest.test_case "fifo ties" `Quick test_queue_fifo_ties;
          Alcotest.test_case "interleaved" `Quick test_queue_interleaved;
          QCheck_alcotest.to_alcotest prop_queue_sorted;
        ] );
      ( "event_queue laws",
        List.map
          (fun t -> QCheck_alcotest.to_alcotest t)
          [
            prop_drain_is_stable_sort;
            prop_pop_nth_preserves_order;
            prop_queue_ops_match_reference;
          ]
        @ [
            Alcotest.test_case "popped payload is collectable" `Quick
              test_queue_releases_popped;
          ] );
      ("latency", [ Alcotest.test_case "models" `Quick test_latency ]);
      ( "journal",
        [
          Alcotest.test_case "basics" `Quick test_journal_basics;
          Alcotest.test_case "ring wraps" `Quick test_journal_ring_wraps;
          Alcotest.test_case "growth boundaries" `Quick
            test_journal_growth_boundaries;
        ] );
      ("metrics", [ Alcotest.test_case "registry" `Quick test_metrics ]);
    ]
