open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts
open Dgc_core

type Protocol.ext +=
  | M_migrate of {
      old_oid : Oid.t;
      fields : Oid.t list;
      size : int;
      from : Site_id.t;
    }
  | M_ack of { old_oid : Oid.t }

let () =
  Protocol.register_ext_kind (function
    | M_migrate _ | M_ack _ -> Some "migrate"
    | _ -> None);
  (* A migrating object's referents must stay live while it flies. *)
  Protocol.register_ext_refs (function
    | M_migrate { fields; _ } -> Some fields
    | M_ack _ -> Some []
    | _ -> None)

type t = {
  eng : Engine.t;
  col : Collector.t;
  mutable migrations : int;
  mutable bytes_moved : int;
  mutable skipped : int;
  departing : unit Oid.Tbl.t;
      (** objects sent away whose destination has not acked yet *)
  arrived : unit Oid.Tbl.t;  (** objects whose copy has landed *)
}

let collector t = t.col
let migrations t = t.migrations
let bytes_moved t = t.bytes_moved
let skipped_multi_holder t = t.skipped

(* Register a cross-site reference now held at [holder] (the engine's
   insert protocol in miniature, applied synchronously: migration is a
   controlled operation and both table updates belong to it). *)
let register_ref t ~holder r =
  if not (Site_id.equal (Oid.site r) holder) then begin
    let holder_site = Engine.site t.eng holder in
    let o, _created = Tables.ensure_outref holder_site.Site.tables r in
    let owner = Engine.site t.eng (Oid.site r) in
    let ir = Tables.ensure_inref owner.Site.tables r in
    Tables.add_source owner.Site.tables ir holder ~dist:1 ~inc:o.Ioref.or_inc
  end

let arrive t site_id ~old_oid ~fields ~size ~from =
  let site = Engine.site t.eng site_id in
  let heap = site.Site.heap in
  (* Materialize the migrated object under a fresh local identity. *)
  let fresh = Heap.alloc ~size heap in
  let rewritten =
    List.map (fun z -> if Oid.equal z old_oid then fresh else z) fields
  in
  List.iter (fun z -> Heap.add_field heap ~obj:fresh ~target:z) rewritten;
  List.iter (fun z -> register_ref t ~holder:site_id z) rewritten;
  (* Patch every local reference to the old identity. *)
  Heap.retarget heap ~old_oid ~fresh;
  (* The outref for the old object is dead now. *)
  Tables.remove_outref site.Site.tables old_oid;
  Metrics.incr (Engine.metrics t.eng) "migration.arrivals";
  Engine.send t.eng ~src:site_id ~dst:from (Protocol.Ext (M_ack { old_oid }))

let handle t site_id ~src:_ ext =
  match ext with
  | M_migrate { old_oid; fields; size; from } ->
      if Oid.Tbl.mem t.arrived old_oid then
        Engine.send t.eng ~src:site_id ~dst:from
          (Protocol.Ext (M_ack { old_oid }))
      else begin
        Oid.Tbl.replace t.arrived old_oid ();
        arrive t site_id ~old_oid ~fields ~size ~from
      end;
      true
  | M_ack { old_oid } ->
      if Oid.Tbl.mem t.departing old_oid then begin
        (* The move is complete: the destination holds the copy and has
           retargeted every reference, so the source copy is garbage. *)
        Oid.Tbl.remove t.departing old_oid;
        let site = Engine.site t.eng site_id in
        Tables.remove_inref site.Site.tables old_oid;
        ignore (Sweep.free t.eng site [ Oid.index old_oid ])
      end;
      true
  | _ -> false

let try_migrate t site_id =
  let conf = Engine.config t.eng in
  let site = Engine.site t.eng site_id in
  let heap = site.Site.heap in
  let candidates =
    Tables.inrefs site.Site.tables
    |> List.filter (fun ir ->
           (not ir.Ioref.ir_flagged)
           && (not (Ioref.inref_clean ~delta:conf.Config.delta ir))
           && Ioref.inref_dist ir > conf.Config.threshold2
           && Heap.mem heap ir.Ioref.ir_target)
  in
  List.iter
    (fun ir ->
      match Ioref.source_sites ir with
      | [ dst ] when Site_id.compare dst site_id < 0 ->
          (* Monotone destinations (downhill in site order): without a
             total order, concurrent migrations on a cycle rotate it
             around the ring forever instead of collapsing it — the
             "controlled" part of ML95's controlled migration. *)
          let r = ir.Ioref.ir_target in
          let obj = Heap.get heap r in
          let fields = obj.Heap.fields in
          let size = obj.Heap.size in
          (* Only migrate if no local object still references it —
             otherwise local holders would dangle (they keep it live
             anyway, so it will be reconsidered later). *)
          let locally_held =
            Heap.fold heap ~init:false ~f:(fun acc o ->
                acc
                || (not (Oid.equal o.Heap.oid r))
                   && List.exists (Oid.equal r) o.Heap.fields)
          in
          if not locally_held then begin
            if not (Oid.Tbl.mem t.departing r) then begin
              t.migrations <- t.migrations + 1;
              t.bytes_moved <- t.bytes_moved + size + List.length fields;
              Metrics.incr (Engine.metrics t.eng) "migration.departures";
              Metrics.add (Engine.metrics t.eng) "migration.bytes"
                (size + List.length fields);
              Oid.Tbl.replace t.departing r ()
            end;
            (* A departure is a move, not a free: the object stays, live
               and referenced from [dst], until [dst] has taken the copy
               and acks. Each trace that still finds it departing sends
               it again, so a lost [M_migrate] or [M_ack] is repaired;
               [dst] takes one copy and acks every repeat. *)
            Engine.send t.eng ~src:site_id ~dst
              (Protocol.Ext
                 (M_migrate { old_oid = r; fields; size; from = site_id }))
          end
      | [] | [ _ ] -> ()
      | _ :: _ :: _ -> t.skipped <- t.skipped + 1)
    candidates

let install eng =
  let col = Collector.install eng in
  Collector.set_auto_back_traces col false;
  let t =
    {
      eng;
      col;
      migrations = 0;
      bytes_moved = 0;
      skipped = 0;
      departing = Oid.Tbl.create 16;
      arrived = Oid.Tbl.create 16;
    }
  in
  Array.iter
    (fun s ->
      let prev = s.Site.hooks.Site.h_ext in
      s.Site.hooks.Site.h_ext <-
        (fun ~src ext ->
          if not (handle t s.Site.id ~src ext) then prev ~src ext))
    (Engine.sites eng);
  Collector.set_after_trace col (fun site_id -> try_migrate t site_id);
  t
