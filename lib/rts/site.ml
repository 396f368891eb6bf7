open Dgc_prelude
open Dgc_heap

type hooks = {
  mutable h_ref_arrived : Oid.t -> unit;
  mutable h_ioref_cleaned : Oid.t -> unit;
  mutable h_ext : src:Site_id.t -> Protocol.ext -> unit;
  mutable h_run_local_trace : unit -> unit;
}

type t = {
  id : Site_id.t;
  heap : Heap.t;
  tables : Tables.t;
  mutable crashed : bool;
  mutable trace_epoch : int;
  pin_tbl : (int, Oid.t list) Hashtbl.t;
  labels : (string, string) Hashtbl.t;
  hooks : hooks;
}

let create id =
  {
    id;
    heap = Heap.create id;
    tables = Tables.create id;
    crashed = false;
    trace_epoch = 0;
    pin_tbl = Hashtbl.create 8;
    labels = Hashtbl.create 8;
    hooks =
      {
        h_ref_arrived = (fun _ -> ());
        h_ioref_cleaned = (fun _ -> ());
        h_ext = (fun ~src:_ _ -> ());
        h_run_local_trace =
          (fun () -> failwith "Site: no collector installed");
      };
  }

let is_local t r = Site_id.equal (Oid.site r) t.id

let metric_label t base =
  match Hashtbl.find_opt t.labels base with
  | Some s -> s
  | None ->
      let s = Printf.sprintf "%s{site=%d}" base (Site_id.to_int t.id) in
      Hashtbl.add t.labels base s;
      s

let pin t ~token refs =
  Hashtbl.replace t.pin_tbl token refs;
  List.iter
    (fun r ->
      if not (is_local t r) then
        match Tables.find_outref t.tables r with
        | Some o ->
            let was_clean = Ioref.outref_clean o in
            o.Ioref.or_pins <- o.Ioref.or_pins + 1;
            if not was_clean then t.hooks.h_ioref_cleaned r
        | None ->
            (* The pinning call sites guarantee an outref exists for any
               remote reference held at this site. *)
            invalid_arg "Site.pin: no outref for pinned remote reference")
    refs

let unpin t ~token =
  match Hashtbl.find_opt t.pin_tbl token with
  | None -> ()
  | Some refs ->
      Hashtbl.remove t.pin_tbl token;
      List.iter
        (fun r ->
          if not (is_local t r) then
            match Tables.find_outref t.tables r with
            | Some o -> o.Ioref.or_pins <- max 0 (o.Ioref.or_pins - 1)
            | None -> ())
        refs

let pinned_local_roots t =
  Hashtbl.fold
    (fun _ refs acc -> List.filter (is_local t) refs @ acc)
    t.pin_tbl []

let fresh_outref_of_arrival t r =
  if is_local t r then `Local
  else begin
    let o, created = Tables.ensure_outref t.tables r in
    if created then begin
      (* Keep the new outref pinned until the owner acknowledges the
         insert (the engine releases it on Insert_done); otherwise a
         local trace could drop the outref before the insert lands and
         leave a stale source entry at the owner. *)
      o.Ioref.or_pins <- o.Ioref.or_pins + 1;
      `Created o.Ioref.or_inc
    end
    else
      (* §6.1.2 case 3: a suspected outref for an arriving reference is
         cleaned. The cleaning itself is the collector's barrier duty
         (h_ref_arrived); here we only report the table state. *)
      `Known
  end
