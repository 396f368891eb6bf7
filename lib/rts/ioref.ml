open Dgc_prelude
open Dgc_heap

type source = {
  src_site : Site_id.t;
  mutable src_dist : int;
  mutable src_inc : int;
}

type inref = {
  ir_target : Oid.t;
  mutable ir_sources : source list;
  mutable ir_flagged : bool;
  mutable ir_fresh : bool;
  mutable ir_forced_clean : bool;
  mutable ir_suspected : bool;
  mutable ir_back_threshold : int;
  mutable ir_visited : Trace_id.Set.t;
  mutable ir_outset : Oid.t list;
  mutable ir_view : int;
}

type outref = {
  or_target : Oid.t;
  or_inc : int;
  mutable or_dist : int;
  mutable or_pins : int;
  mutable or_fresh : bool;
  mutable or_forced_clean : bool;
  mutable or_suspected : bool;
  mutable or_back_threshold : int;
  mutable or_visited : Trace_id.Set.t;
  mutable or_inset : Oid.t list;
  mutable or_view : int;
}

let infinity_dist = max_int / 4

let make_inref ?(threshold2 = infinity_dist) target =
  {
    ir_target = target;
    ir_sources = [];
    ir_flagged = false;
    ir_fresh = true;
    ir_forced_clean = false;
    ir_suspected = false;
    ir_back_threshold = threshold2;
    ir_visited = Trace_id.Set.empty;
    ir_outset = [];
    ir_view = -1;
  }

let make_outref ?(threshold2 = infinity_dist) ?(dist = 1) ?(inc = 0) target =
  {
    or_target = target;
    or_inc = inc;
    or_dist = dist;
    or_pins = 0;
    or_fresh = true;
    or_forced_clean = false;
    or_suspected = false;
    or_back_threshold = threshold2;
    or_visited = Trace_id.Set.empty;
    or_inset = [];
    or_view = -1;
  }

let inref_dist ir =
  List.fold_left (fun acc s -> min acc s.src_dist) infinity_dist ir.ir_sources

let find_source ir site =
  List.find_opt (fun s -> Site_id.equal s.src_site site) ir.ir_sources

let source_sites ir = List.map (fun s -> s.src_site) ir.ir_sources

let inref_held ir = ir.ir_forced_clean || ir.ir_fresh

let inref_clean ~delta ir =
  inref_held ir || (not ir.ir_suspected) || inref_dist ir <= delta

let outref_held o = o.or_forced_clean || o.or_fresh || o.or_pins > 0
let outref_clean o = outref_held o || not o.or_suspected

let pp_source ppf s =
  Format.fprintf ppf "%a@%d" Site_id.pp s.src_site s.src_dist

let pp_inref ppf ir =
  Format.fprintf ppf "@[inref %a: sources=[%a] dist=%d%s%s%s@]" Oid.pp
    ir.ir_target
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
       pp_source)
    ir.ir_sources (inref_dist ir)
    (if ir.ir_suspected then " suspected" else "")
    (if ir.ir_forced_clean then " forced-clean" else "")
    (if ir.ir_flagged then " FLAGGED" else "")

let pp_outref ppf o =
  Format.fprintf ppf "@[outref %a: dist=%d pins=%d%s%s inset=[%a]@]" Oid.pp
    o.or_target o.or_dist o.or_pins
    (if o.or_suspected then " suspected" else "")
    (if o.or_forced_clean then " forced-clean" else "")
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
       Oid.pp)
    o.or_inset
