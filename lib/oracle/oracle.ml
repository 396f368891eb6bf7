open Dgc_prelude
open Dgc_heap
open Dgc_rts

exception Safety_violation of string

(* Every root with its §3 distance: a persistent root, or an app root
   naming an object of its own site, is 0; an app root naming another
   site's object is one inter-site reference away, 1; a reference
   inside an undelivered message crosses the wire, 1. *)
let iter_roots eng f =
  Array.iter
    (fun s ->
      let sid = s.Site.id in
      List.iter (fun r -> f r 0) (Heap.persistent_roots s.Site.heap);
      List.iter
        (fun r -> f r (if Site_id.equal (Oid.site r) sid then 0 else 1))
        (Engine.app_roots eng sid))
    (Engine.sites eng);
  List.iter (fun r -> f r 1) (Engine.in_flight_refs eng)

(* 0-1 BFS over the union of heaps: a local edge costs 0 and goes to
   the front of the deque, a cross-site edge costs 1 and goes to the
   back. The deque is [front @ List.rev back]; [level] is the distance
   being expanded (0 while the roots are seeded). *)
let distances eng =
  let dist : int Oid.Tbl.t = Oid.Tbl.create 256 in
  let heap_of r = (Engine.site eng (Oid.site r)).Site.heap in
  let front = ref [] and back = ref [] and level = ref 0 in
  let relax r d =
    if Heap.mem (heap_of r) r then
      match Oid.Tbl.find_opt dist r with
      | Some d' when d' <= d -> ()
      | Some _ | None ->
          Oid.Tbl.replace dist r d;
          if d = !level then front := r :: !front else back := r :: !back
  in
  iter_roots eng relax;
  let rec drain () =
    match !front with
    | r :: tl ->
        front := tl;
        let d = Oid.Tbl.find dist r in
        (* An entry pushed before [r] was reached more cheaply is
           stale: its level has passed. *)
        if d = !level then
          List.iter
            (fun z ->
              let local = Site_id.equal (Oid.site z) (Oid.site r) in
              relax z (if local then d else d + 1))
            (Heap.fields (heap_of r) r);
        drain ()
    | [] when !back <> [] ->
        front := List.rev !back;
        back := [];
        incr level;
        drain ()
    | [] -> ()
  in
  drain ();
  dist

let max_distance eng = Oid.Tbl.fold (fun _ d m -> max d m) (distances eng) 0

let live_set eng =
  Oid.Tbl.fold (fun r _ acc -> Oid.Set.add r acc) (distances eng) Oid.Set.empty

let garbage_set eng =
  let dist = distances eng in
  Array.fold_left
    (fun acc s ->
      Heap.fold s.Site.heap ~init:acc ~f:(fun acc o ->
          let r = o.Heap.oid in
          if Oid.Tbl.mem dist r then acc else Oid.Set.add r acc))
    Oid.Set.empty (Engine.sites eng)

let garbage_count eng = Oid.Set.cardinal (garbage_set eng)

let cyclic_garbage_sites eng =
  Oid.Set.fold
    (fun r acc -> Site_id.Set.add (Oid.site r) acc)
    (garbage_set eng) Site_id.Set.empty

let check_would_free eng site_id idxs =
  if idxs <> [] then begin
    let dist = distances eng in
    List.iter
      (fun i ->
        let oid = Oid.make ~site:site_id ~index:i in
        if Oid.Tbl.mem dist oid then
          raise
            (Safety_violation
               (Format.asprintf "about to free live object %a" Oid.pp oid)))
      idxs
  end

let assert_no_garbage eng =
  let g = garbage_set eng in
  if not (Oid.Set.is_empty g) then
    raise
      (Safety_violation
         (Format.asprintf "uncollected garbage: %a"
            (Format.pp_print_list ~pp_sep:Format.pp_print_space Oid.pp)
            (Oid.Set.elements g)))

let table_violations eng =
  let sites = Engine.sites eng in
  let problems = ref [] in
  let note fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  Array.iter
    (fun s ->
      let sid = s.Site.id in
      (* Cross-site heap edges are fully registered. *)
      Heap.iter s.Site.heap (fun o ->
          List.iter
            (fun r ->
              if not (Site_id.equal (Oid.site r) sid) then begin
                (match Tables.find_outref s.Site.tables r with
                | Some _ -> ()
                | None ->
                    note "%a: field %a -> %a lacks an outref" Site_id.pp sid
                      Oid.pp o.Heap.oid Oid.pp r);
                let owner = Engine.site eng (Oid.site r) in
                match Tables.find_inref owner.Site.tables r with
                | Some ir when Ioref.find_source ir sid <> None -> ()
                | Some _ ->
                    note "%a: inref %a misses source %a" Site_id.pp
                      owner.Site.id Oid.pp r Site_id.pp sid
                | None ->
                    note "%a: missing inref %a (field held by %a)" Site_id.pp
                      owner.Site.id Oid.pp r Site_id.pp sid
              end)
            o.Heap.fields);
      (* Outrefs are backed by source entries at the owner. *)
      Tables.iter_outrefs s.Site.tables (fun o ->
          let r = o.Ioref.or_target in
          let owner = Engine.site eng (Oid.site r) in
          match Tables.find_inref owner.Site.tables r with
          | Some ir when Ioref.find_source ir sid <> None -> ()
          | Some _ | None ->
              note "%a: outref %a not registered at owner" Site_id.pp sid
                Oid.pp r);
      (* Inref sources actually hold outrefs. *)
      Tables.iter_inrefs s.Site.tables (fun ir ->
          List.iter
            (fun src ->
              let holder = Engine.site eng src in
              match Tables.find_outref holder.Site.tables ir.Ioref.ir_target with
              | Some _ -> ()
              | None ->
                  note "%a: inref %a lists source %a which has no outref"
                    Site_id.pp sid Oid.pp ir.Ioref.ir_target Site_id.pp src)
            (Ioref.source_sites ir)))
    sites;
  List.rev !problems
