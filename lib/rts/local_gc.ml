open Dgc_simcore
open Dgc_heap

let run eng site =
  let heap = site.Site.heap in
  let tables = site.Site.tables in
  let metrics = Engine.metrics eng in
  Metrics.incr metrics "gc.local_traces";
  (* Unsorted iteration: the roots feed a closure (sets), so table
     order is not observable here. *)
  let inref_roots = ref [] in
  Tables.iter_inrefs tables (fun ir ->
      if not ir.Ioref.ir_flagged then
        inref_roots := ir.Ioref.ir_target :: !inref_roots);
  let inref_roots = !inref_roots in
  let roots =
    Heap.persistent_roots heap
    @ Engine.app_roots eng site.Site.id
    @ inref_roots
  in
  let locals, remotes = Reach.closure (Dense.of_heap heap) ~from:roots in
  (* Sweep local objects. *)
  let dead =
    Heap.fold heap ~init:[] ~f:(fun acc o ->
        if Oid.Set.mem o.Heap.oid locals then acc
        else Oid.index o.Heap.oid :: acc)
  in
  let freed = Heap.free heap dead in
  Metrics.add metrics "gc.objects_freed" freed;
  (* Trim outrefs: keep traced, pinned or fresh ones. *)
  let removals = ref [] in
  List.iter
    (fun o ->
      let r = o.Ioref.or_target in
      if Oid.Set.mem r remotes then o.Ioref.or_fresh <- false
      else if o.Ioref.or_pins > 0 then ()
      else if o.Ioref.or_fresh then
        (* Keep a just-created outref for one round; if still untraced
           next time it is removed with a proper update message. *)
        o.Ioref.or_fresh <- false
      else begin
        Tables.remove_outref tables r;
        removals := (r, o.Ioref.or_inc) :: !removals
      end)
    (Tables.outrefs tables);
  Engine.send_updates eng ~src:site.Site.id ~removals:!removals ~dists:[];
  Tables.iter_inrefs tables (fun ir -> ir.Ioref.ir_fresh <- false);
  site.Site.trace_epoch <- site.Site.trace_epoch + 1

let install eng =
  Array.iter
    (fun s -> s.Site.hooks.Site.h_run_local_trace <- (fun () -> run eng s))
    (Engine.sites eng)
