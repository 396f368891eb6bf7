(* Dense capture equivalence: the CSR adjacency + bitsets must encode
   exactly the heap state they were captured from — and keep encoding
   it after the heap mutates — over randomized multi-site graph_gen
   heaps. The byte-identity of trace outcomes rests on this. *)

open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts
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

let test_empty_heap () =
  let heap = Heap.create (Site_id.of_int 0) in
  check_capture (state_of_heap heap) (Snapshot.take heap)

let () =
  Alcotest.run "dense"
    [
      ("unit", [ Alcotest.test_case "empty heap" `Quick test_empty_heap ]);
      ("properties", [ QCheck_alcotest.to_alcotest prop_capture_is_frozen ]);
    ]
