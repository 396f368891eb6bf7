(* Dense capture equivalence: the CSR adjacency + bitsets must encode
   exactly the heap state they were captured from — and keep encoding
   it after the heap mutates — over randomized multi-site graph_gen
   heaps. The byte-identity of trace outcomes rests on this. *)

open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts
open Dgc_core
open Dgc_workload

let cfg n seed =
  {
    Config.default with
    Config.n_sites = n;
    seed;
    delta = 3;
    threshold2 = 6;
    trace_duration = Sim_time.zero;
  }

(* A heap's state, by value: what a capture must reproduce. *)
type state = {
  clock : int;
  count : int;
  indices : int list;
  fields : (int * string list) list;
  roots : string list;
}

let strings = List.map Oid.to_string

let state_of_heap heap =
  let site = Heap.site heap in
  let indices = Heap.indices heap in
  {
    clock = Heap.alloc_clock heap;
    count = Heap.object_count heap;
    indices;
    fields =
      List.map
        (fun i -> (i, strings (Heap.fields heap (Oid.make ~site ~index:i))))
        indices;
    roots = strings (Heap.persistent_roots heap);
  }

let check_capture (st : state) snap =
  let d = Snapshot.dense snap in
  let site = Dense.site d in
  Alcotest.(check int) "bound = alloc clock" st.clock (Dense.bound d);
  Alcotest.(check int) "snapshot clock" st.clock (Snapshot.alloc_clock snap);
  Alcotest.(check int) "object count" st.count (Dense.object_count d);
  Alcotest.(check int) "snapshot count" st.count (Snapshot.object_count snap);
  Alcotest.(check (list int)) "indices" st.indices (Dense.indices d);
  Alcotest.(check (list string))
    "roots in captured order" st.roots
    (strings (Snapshot.persistent_roots snap));
  for i = 0 to st.clock - 1 do
    let oid = Oid.make ~site ~index:i in
    let expect = List.assoc_opt i st.fields in
    Alcotest.(check bool)
      (Printf.sprintf "present %d" i)
      (Option.is_some expect) (Dense.present d i);
    Alcotest.(check bool)
      (Printf.sprintf "snapshot mem %d" i)
      (Option.is_some expect) (Snapshot.mem snap oid);
    let fields = Option.value ~default:[] expect in
    Alcotest.(check (list string))
      (Printf.sprintf "fields of %d" i)
      fields
      (strings (Dense.fields d i));
    Alcotest.(check (list string))
      (Printf.sprintf "snapshot fields of %d" i)
      fields
      (strings (Snapshot.fields snap oid));
    Alcotest.(check bool)
      (Printf.sprintf "root %d" i)
      (List.mem (Oid.to_string oid) st.roots)
      (Dense.is_root d i)
  done

(* A random mutation sequence over every [Heap] mutator. *)
let mutate rng heap =
  let site = Heap.site heap in
  let remote =
    Oid.make
      ~site:(Site_id.of_int (if Site_id.to_int site = 0 then 1 else 0))
      ~index:0
  in
  let pick () =
    match Heap.indices heap with
    | [] -> None
    | l ->
        Some (Oid.make ~site ~index:(List.nth l (Rng.int rng (List.length l))))
  in
  for _ = 1 to 20 do
    match (Rng.int rng 6, pick (), pick ()) with
    | 0, Some a, Some b -> Heap.add_field heap ~obj:a ~target:b
    | 1, Some a, _ -> Heap.add_field heap ~obj:a ~target:remote
    | 2, Some a, _ -> (
        match Heap.fields heap a with
        | [] -> ()
        | fs ->
            ignore
              (Heap.remove_field heap ~obj:a
                 ~target:(List.nth fs (Rng.int rng (List.length fs)))))
    | 3, Some a, _ -> Heap.clear_fields heap a
    | 4, _, _ -> ignore (Heap.alloc heap)
    | 5, Some a, _ -> ignore (Heap.free heap [ Oid.index a ])
    | _ -> ()
  done

(* Randomized graph_gen heaps, including holes from frees: the capture
   matches the heap at capture time, and still does after the heap
   mutates. *)
let prop_capture_is_frozen =
  QCheck2.Test.make ~name:"dense export matches heap/snapshot" ~count:40
    ~print:QCheck2.Print.(pair int (pair int int))
    QCheck2.Gen.(pair (1 -- 1000) (pair (2 -- 4) (1 -- 20)))
    (fun (seed, (n_sites, objs_per_site)) ->
      let eng = Engine.create (cfg n_sites seed) in
      let rng = Rng.create ~seed in
      ignore
        (Graph_gen.random_graph eng ~rng ~objects_per_site:objs_per_site
           ~out_degree:2.5 ~remote_frac:0.3 ~root_frac:0.2);
      Array.iter
        (fun st ->
          let heap = st.Site.heap in
          (* Punch holes: free a few non-root objects so indices are
             sparse in [0, bound). *)
          let victims =
            List.filter (fun _i -> Rng.float rng 1.0 < 0.2) (Heap.indices heap)
          in
          ignore (Heap.free heap victims);
          let before = state_of_heap heap in
          let snap = Snapshot.take heap in
          check_capture before snap;
          mutate rng heap;
          check_capture before snap)
        (Engine.sites eng);
      true)

(* Captures interleaved at random with every heap write — the writes
   that change the shape and [free], which does not — and with every
   write to the site's tables and roots: each capture matches the heap
   at its own time, and at the end every earlier capture still does,
   so neither the arrays shared between captures nor the copied live
   bitsets ever change. Whenever the site's input stamp has not moved
   since the last capture, the trace input sampled now equals the last
   one by value: a writer that skipped its version bump fails here.
   Two captures with no write between them always repeat the stamp. *)
let interleave rng eng site =
  let heap = site.Site.heap and tables = site.Site.tables in
  let id = site.Site.id in
  let remote k = Oid.make ~site:(Site_id.of_int 1) ~index:k in
  let pick () =
    match Heap.indices heap with
    | [] -> None
    | l ->
        Some (Oid.make ~site:id ~index:(List.nth l (Rng.int rng (List.length l))))
  in
  (* A target: live or freed local, or one of a few remotes. *)
  let local () =
    Oid.make ~site:id ~index:(Rng.int rng (max 1 (Heap.alloc_clock heap)))
  in
  let target () =
    match Rng.int rng 3 with 0 -> remote (Rng.int rng 4) | _ -> local ()
  in
  let inref () =
    match Tables.inrefs tables with
    | [] -> None
    | l -> Some (List.nth l (Rng.int rng (List.length l)))
  in
  let app = ref [] in
  Engine.set_extra_roots eng (fun s -> if Site_id.equal s id then !app else []);
  let tokens = ref [] in
  let taken = ref [] and last = ref None in
  let capture () =
    let now = Local_trace.stamp eng site in
    let st = state_of_heap heap in
    let snap = Snapshot.take heap in
    check_capture st snap;
    let inp = Local_trace.input_of_snapshot eng site snap in
    let hit =
      match !last with
      | Some (before, prev) when Local_trace.same_input now before ->
          Alcotest.(check bool) "same stamp, same input" true (inp = prev);
          true
      | _ -> false
    in
    last := Some (Local_trace.stamp eng site, inp);
    taken := (st, snap) :: !taken;
    hit
  in
  for _ = 1 to 120 do
    match (Rng.int rng 24, pick ()) with
    | 0, _ -> ignore (Heap.alloc heap)
    | 1, Some a -> Heap.add_field heap ~obj:a ~target:(target ())
    | 2, Some a -> (
        match Heap.fields heap a with
        | [] -> ()
        | fs ->
            ignore
              (Heap.remove_field heap ~obj:a
                 ~target:(List.nth fs (Rng.int rng (List.length fs)))))
    | 3, Some a -> Heap.clear_fields heap a
    | 4, Some a -> Heap.add_persistent_root heap a
    | 5, _ ->
        let victims =
          List.filter (fun _ -> Rng.int rng 4 = 0) (Heap.indices heap)
        in
        ignore (Heap.free heap victims)
    | 6, _ -> Heap.retarget heap ~old_oid:(target ()) ~fresh:(target ())
    | 7, _ -> ignore (Tables.ensure_inref tables (local ()))
    | 8, _ -> Option.iter (fun ir -> Tables.remove_inref tables ir.Ioref.ir_target) (inref ())
    | 9, _ ->
        Option.iter
          (fun ir ->
            Tables.add_source tables ir (Site_id.of_int 1) ~dist:(Rng.int rng 6)
              ~inc:0)
          (inref ())
    | 10, _ ->
        Option.iter
          (fun ir ->
            Tables.set_source_dist tables ir (Site_id.of_int 1)
              ~dist:(Rng.int rng 6))
          (inref ())
    | 11, _ ->
        Option.iter
          (fun ir -> Tables.remove_source tables ir (Site_id.of_int 1))
          (inref ())
    | 12, _ -> Option.iter (Tables.flag_inref tables) (inref ())
    | 13, _ -> ignore (Tables.ensure_outref tables (remote (Rng.int rng 4)))
    | 14, _ -> Tables.remove_outref tables (remote (Rng.int rng 4))
    | 15, _ ->
        app :=
          (match Rng.int rng 3 with
          | 0 -> local () :: !app
          | 1 -> ( match !app with [] -> [] | _ :: tl -> tl)
          | _ -> [ local () ])
    | 16, _ ->
        let token = Engine.fresh_token eng in
        Site.pin site ~token [ local () ];
        tokens := token :: !tokens
    | 17, _ -> (
        match !tokens with
        | [] -> ()
        | token :: tl ->
            Site.unpin site ~token;
            tokens := tl)
    | _ -> ignore (capture ())
  done;
  ignore (capture ());
  Alcotest.(check bool) "no write between captures: stamp repeats" true
    (capture ());
  List.iter (fun (st, snap) -> check_capture st snap) !taken

let prop_interleaved_captures =
  QCheck2.Test.make ~name:"captures interleaved with every heap write"
    ~count:100 ~print:QCheck2.Print.int
    QCheck2.Gen.(1 -- 100_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let eng = Engine.create (cfg 2 seed) in
      let site = Engine.site eng (Site_id.of_int 0) in
      for _ = 1 to 1 + Rng.int rng 8 do
        ignore (Heap.alloc site.Site.heap)
      done;
      interleave rng eng site;
      true)

(* The word-wide bitmap scans agree with byte-at-a-time loops, on
   lengths that are mostly not multiples of 8. [present] mostly covers
   [marked], with one byte knocked out half the time. *)
let prop_bitmap_scans =
  QCheck2.Test.make ~name:"word-wide bitmap scans equal bytewise loops"
    ~count:500 ~print:QCheck2.Print.int
    QCheck2.Gen.(1 -- 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let n = Rng.int rng 70 in
      let bit p = if Rng.float rng 1.0 < p then '\001' else '\000' in
      let density = Rng.float rng 1.0 in
      let marked = Bytes.init n (fun _ -> bit density) in
      let present =
        Bytes.init (n + Rng.int rng 9) (fun i ->
            if i < n && Bytes.get marked i <> '\000' then '\001' else bit 0.5)
      in
      if n > 0 && Rng.int rng 2 = 0 then
        Bytes.set present (Rng.int rng n) '\000';
      let covers_bytewise = ref true in
      let set_bytewise = ref [] in
      for i = n - 1 downto 0 do
        if Bytes.get marked i <> '\000' then begin
          set_bytewise := i :: !set_bytewise;
          if Bytes.get present i = '\000' then covers_bytewise := false
        end
      done;
      let set = ref [] in
      Dense.iter_set marked (fun i -> set := i :: !set);
      Dense.covers ~present marked = !covers_bytewise
      && List.rev !set = !set_bytewise)

let test_empty_heap () =
  let heap = Heap.create (Site_id.of_int 0) in
  check_capture (state_of_heap heap) (Snapshot.take heap)

(* Captures with no shape change between them share the CSR arrays; a
   [free] only clears the freed object's bit in the newer capture. *)
let test_capture_reuse () =
  let site = Site_id.of_int 0 in
  let heap = Heap.create site in
  let a = Heap.alloc heap and b = Heap.alloc heap in
  Heap.add_persistent_root heap a;
  Heap.add_field heap ~obj:a ~target:b;
  Heap.add_field heap ~obj:b
    ~target:(Oid.make ~site:(Site_id.of_int 1) ~index:0);
  let check = Alcotest.(check bool) in
  let d1 = Dense.of_heap heap in
  let d2 = Dense.of_heap heap in
  check "no write: codes shared" true (d1.Dense.d_codes == d2.Dense.d_codes);
  check "no write: starts shared" true (d1.Dense.d_start == d2.Dense.d_start);
  check "bitset copied" false (d1.Dense.d_present == d2.Dense.d_present);
  ignore (Heap.free heap [ Oid.index b ]);
  let d3 = Dense.of_heap heap in
  check "after free: codes shared" true (d1.Dense.d_codes == d3.Dense.d_codes);
  check "after free: b absent" false (Dense.present d3 (Oid.index b));
  Alcotest.(check int) "after free: count" 1 (Dense.object_count d3);
  check "earlier capture: b present" true (Dense.present d1 (Oid.index b));
  Alcotest.(check int) "earlier capture: count" 2 (Dense.object_count d1);
  Heap.add_field heap ~obj:a ~target:a;
  let d4 = Dense.of_heap heap in
  check "after add_field: rebuilt" false (d1.Dense.d_codes == d4.Dense.d_codes)

(* A migration arrival retargets references through [Heap], so the
   capture taken after it shows the rewritten fields. Two-site garbage
   ring: S1's object migrates to S0, whose object's reference to it is
   rewritten to the fresh local copy. *)
let test_capture_after_migration () =
  let eng =
    Engine.create
      {
        (cfg 2 5) with
        Config.trace_interval = Sim_time.of_seconds 10.;
        trace_jitter = Sim_time.of_seconds 1.;
      }
  in
  let m = Dgc_baselines.Migration.install eng in
  let objs =
    Graph_gen.ring eng
      ~sites:[ Site_id.of_int 0; Site_id.of_int 1 ]
      ~per_site:1 ~rooted:false
  in
  let moved = List.nth objs 1 in
  let heap = (Engine.site eng (Site_id.of_int 0)).Site.heap in
  let clock = Heap.alloc_clock heap in
  let before = state_of_heap heap in
  let snap = Snapshot.take heap in
  Engine.start_gc_schedule eng;
  let steps = ref 0 in
  while Heap.alloc_clock heap = clock && !steps < 600 do
    Engine.run_for eng (Sim_time.of_seconds 1.);
    incr steps
  done;
  Alcotest.(check bool)
    "migrated" true
    (Dgc_baselines.Migration.migrations m > 0);
  Alcotest.(check bool) "arrived" true (Heap.alloc_clock heap > clock);
  let after = Snapshot.take heap in
  check_capture (state_of_heap heap) after;
  check_capture before snap;
  let fresh = Oid.make ~site:(Heap.site heap) ~index:clock in
  let refs target d =
    List.exists
      (fun i -> List.exists (Oid.equal target) (Dense.fields d i))
      (Dense.indices d)
  in
  Alcotest.(check bool) "before: reference to the migrating object" true
    (refs moved (Snapshot.dense snap));
  Alcotest.(check bool) "after: no reference to the old identity" false
    (refs moved (Snapshot.dense after));
  Alcotest.(check bool) "after: reference to the fresh copy" true
    (refs fresh (Snapshot.dense after))

(* Stale rows are never read: root [a] -> [x] -> remote [r], then [x]
   is freed and the heap recaptured (reusing the capture that still
   holds [x]'s row). *)
let stale_heap ~free_first =
  let site = Site_id.of_int 0 in
  let heap = Heap.create site in
  let a = Heap.alloc heap and x = Heap.alloc heap in
  let y = Heap.alloc heap and z = Heap.alloc heap in
  let r = Oid.make ~site:(Site_id.of_int 1) ~index:0 in
  let r2 = Oid.make ~site:(Site_id.of_int 2) ~index:0 in
  Heap.add_persistent_root heap a;
  Heap.add_field heap ~obj:a ~target:x;
  Heap.add_field heap ~obj:x ~target:r;
  Heap.add_field heap ~obj:y ~target:x;
  Heap.add_field heap ~obj:y ~target:r2;
  Heap.add_field heap ~obj:z ~target:y;
  if free_first then ignore (Heap.free heap [ Oid.index x ]);
  let first = Dense.of_heap heap in
  if not free_first then ignore (Heap.free heap [ Oid.index x ]);
  (heap, first, (a, y, z, r, r2))

let outcome_digest mode inp =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (Local_trace.compute ~mode inp)
          [ Marshal.No_sharing ]))

let test_stale_rows_unread () =
  let heap, first, (a, y, z, r, r2) = stale_heap ~free_first:false in
  let d = Dense.of_heap heap in
  Alcotest.(check bool)
    "capture reused" true
    (first.Dense.d_codes == d.Dense.d_codes);
  let locals, remotes = Reach.closure d ~from:[ a ] in
  Alcotest.(check (list string)) "closure locals" [ Oid.to_string a ]
    (strings (Oid.Set.elements locals));
  Alcotest.(check bool) "closure misses r" false (Oid.Set.mem r remotes);
  Alcotest.(check bool)
    "reaches misses r" false
    (Reach.reaches d ~src:a ~dst:r);
  let _twin, fresh, _ = stale_heap ~free_first:true in
  let input g =
    {
      Local_trace.in_site = Dense.site g;
      in_graph = g;
      in_roots = Heap.persistent_roots heap;
      in_irs = [| Ioref.make_inref y; Ioref.make_inref z |];
      in_ir_dists = [| 5; 6 |];
      in_ir_flagged = Bytes.make 2 '\000';
      in_ors = [| Ioref.make_outref r; Ioref.make_outref r2 |];
      in_delta = 3;
    }
  in
  List.iter
    (fun (name, mode) ->
      Alcotest.(check string)
        (name ^ " outcome equals the twin's")
        (outcome_digest mode (input fresh))
        (outcome_digest mode (input d)))
    [
      ("bottom-up", Local_trace.Bottom_up);
      ("independent", Local_trace.Independent);
      ("naive", Local_trace.Naive_bottom_up);
    ]

let () =
  Alcotest.run "dense"
    [
      ( "unit",
        [
          Alcotest.test_case "empty heap" `Quick test_empty_heap;
          Alcotest.test_case "capture reuse" `Quick test_capture_reuse;
          Alcotest.test_case "capture after migration" `Quick
            test_capture_after_migration;
          Alcotest.test_case "stale rows unread" `Quick test_stale_rows_unread;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_capture_is_frozen;
          QCheck_alcotest.to_alcotest prop_interleaved_captures;
          QCheck_alcotest.to_alcotest prop_bitmap_scans;
        ] );
    ]
