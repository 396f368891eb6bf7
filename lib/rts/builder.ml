open Dgc_prelude
open Dgc_heap

let obj eng site_id = Heap.alloc (Engine.site eng site_id).Site.heap

let make_root eng r =
  Heap.add_persistent_root (Engine.site eng (Oid.site r)).Site.heap r

let root_obj eng site_id =
  let r = obj eng site_id in
  make_root eng r;
  r

let link eng ~src ~dst =
  let src_site = Engine.site eng (Oid.site src) in
  Heap.add_field src_site.Site.heap ~obj:src ~target:dst;
  if not (Site_id.equal (Oid.site src) (Oid.site dst)) then begin
    let o, _created = Tables.ensure_outref src_site.Site.tables dst in
    let dst_site = Engine.site eng (Oid.site dst) in
    let ir = Tables.ensure_inref dst_site.Site.tables dst in
    Tables.add_source dst_site.Site.tables ir (Oid.site src) ~dist:1
      ~inc:o.Ioref.or_inc
  end

let unlink eng ~src ~dst =
  let src_site = Engine.site eng (Oid.site src) in
  ignore (Heap.remove_field src_site.Site.heap ~obj:src ~target:dst)

let chain eng oids =
  let rec loop = function
    | a :: (b :: _ as tl) ->
        link eng ~src:a ~dst:b;
        loop tl
    | [ _ ] | [] -> ()
  in
  loop oids

let cycle eng oids =
  chain eng oids;
  match (oids, List.rev oids) with
  | first :: _, last :: _ when not (Oid.equal first last) ->
      link eng ~src:last ~dst:first
  | [ _ ], _ | [], _ | _, [] -> ()
  | _ -> ()

let set_source_distance eng ~inref ~src dist =
  let site = Engine.site eng (Oid.site inref) in
  match Tables.find_inref site.Site.tables inref with
  | None -> ()
  | Some ir -> Tables.set_source_dist site.Site.tables ir src ~dist
