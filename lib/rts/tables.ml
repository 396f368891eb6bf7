open Dgc_prelude
open Dgc_heap

type t = {
  site : Site_id.t;
  in_tbl : Ioref.inref Oid.Tbl.t;
  out_tbl : Ioref.outref Oid.Tbl.t;
  mutable version : int;
  mutable last_inc : int;  (** the last outref incarnation handed out *)
}

let create site =
  {
    site;
    in_tbl = Oid.Tbl.create 32;
    out_tbl = Oid.Tbl.create 32;
    version = 0;
    last_inc = 0;
  }

let site t = t.site
let version t = t.version
let bump t = t.version <- t.version + 1
let find_inref t r = Oid.Tbl.find_opt t.in_tbl r

let ensure_inref t r =
  if not (Site_id.equal (Oid.site r) t.site) then
    invalid_arg "Tables.ensure_inref: reference not local to this site";
  match Oid.Tbl.find_opt t.in_tbl r with
  | Some ir -> ir
  | None ->
      let ir = Ioref.make_inref r in
      Oid.Tbl.add t.in_tbl r ir;
      bump t;
      ir

let remove_inref t r =
  Oid.Tbl.remove t.in_tbl r;
  bump t

let add_source t ir site ~dist ~inc =
  (match Ioref.find_source ir site with
  | Some s ->
      s.Ioref.src_dist <- min s.Ioref.src_dist dist;
      s.Ioref.src_inc <- max s.Ioref.src_inc inc
  | None ->
      ir.Ioref.ir_sources <-
        { Ioref.src_site = site; src_dist = dist; src_inc = inc }
        :: ir.Ioref.ir_sources);
  bump t

let set_source_dist t ir site ~dist =
  match Ioref.find_source ir site with
  | Some s ->
      s.Ioref.src_dist <- dist;
      bump t
  | None -> ()

let remove_source t ir site =
  ir.Ioref.ir_sources <-
    List.filter
      (fun s -> not (Site_id.equal s.Ioref.src_site site))
      ir.Ioref.ir_sources;
  bump t

let flag_inref t ir =
  ir.Ioref.ir_flagged <- true;
  bump t

let iter_inrefs t f = Oid.Tbl.iter (fun _ ir -> f ir) t.in_tbl

let inrefs t =
  Oid.Tbl.fold (fun _ ir acc -> ir :: acc) t.in_tbl []
  |> List.sort (fun a b -> Oid.compare a.Ioref.ir_target b.Ioref.ir_target)

let inref_count t = Oid.Tbl.length t.in_tbl
let find_outref t r = Oid.Tbl.find_opt t.out_tbl r

let ensure_outref t ?(dist = 1) r =
  if Site_id.equal (Oid.site r) t.site then
    invalid_arg "Tables.ensure_outref: reference is local to this site";
  match Oid.Tbl.find_opt t.out_tbl r with
  | Some o -> (o, false)
  | None ->
      t.last_inc <- t.last_inc + 1;
      let o = Ioref.make_outref ~dist ~inc:t.last_inc r in
      Oid.Tbl.add t.out_tbl r o;
      bump t;
      (o, true)

let remove_outref t r =
  Oid.Tbl.remove t.out_tbl r;
  bump t

let iter_outrefs t f = Oid.Tbl.iter (fun _ o -> f o) t.out_tbl

let outrefs t =
  Oid.Tbl.fold (fun _ o acc -> o :: acc) t.out_tbl []
  |> List.sort (fun a b -> Oid.compare a.Ioref.or_target b.Ioref.or_target)

let outref_count t = Oid.Tbl.length t.out_tbl

(* Size model for the memory-accounting gauges: words at 8 bytes, one
   record header plus one word per field, list cells at 3 words, set
   nodes at 4. An estimate, not a measurement — what matters is that
   it moves monotonically with the structures it tracks and is exact
   across runs (deterministic), so the bench can gate on it. *)
let word = 8

let approx_bytes t =
  let inref_bytes ir =
    word
    * (11
      + (4 * List.length ir.Ioref.ir_sources)
      + (4 * Trace_id.Set.cardinal ir.Ioref.ir_visited)
      + (3 * List.length ir.Ioref.ir_outset))
  in
  let outref_bytes o =
    word
    * (11
      + (4 * Trace_id.Set.cardinal o.Ioref.or_visited)
      + (3 * List.length o.Ioref.or_inset))
  in
  let n = ref 0 in
  Oid.Tbl.iter (fun _ ir -> n := !n + inref_bytes ir) t.in_tbl;
  Oid.Tbl.iter (fun _ o -> n := !n + outref_bytes o) t.out_tbl;
  !n

let pp ppf t =
  Format.fprintf ppf "@[<v>tables %a:@," Site_id.pp t.site;
  List.iter (fun ir -> Format.fprintf ppf "  %a@," Ioref.pp_inref ir) (inrefs t);
  List.iter
    (fun o -> Format.fprintf ppf "  %a@," Ioref.pp_outref o)
    (outrefs t);
  Format.fprintf ppf "@]"
