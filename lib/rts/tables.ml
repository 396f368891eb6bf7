open Dgc_prelude
open Dgc_heap

(* What the ordered view needs to know of a record kind. [view] is the
   record's [ir_view]/[or_view]; [dummy] fills new arrays (a record
   made at start-up: filling a large array with a record still in the
   minor heap forces a minor collection). *)
module type Record = sig
  type t

  val target : t -> Oid.t
  val view : t -> int
  val set_view : t -> int -> unit
  val dummy : t
end

(* View states of a record. *)
let removed = -1
let added = 0
let in_view = 1

(* One table. [index] maps a target to its record. [order] is the
   target-ordered view: every record in state [in_view], ascending by
   target, plus the [gone] records removed since it was built. An
   insert touches only the index: the record starts [added] and
   [fresh] counts it. Reading the view ([view]) after a change builds
   a new [order] in one merge pass, dropping the removed records and
   merging in the added ones, which one walk of the index collects and
   sorts alone. A built [order] is never written again, so readers
   share it.

   An insert stores the new record nowhere but the index: storing a
   young record into a large array costs a write-barrier entry, which
   made inserts half again as slow, and an array of the inserted
   targets made [cycles-many] set-up about 5% slower for a walk that
   costs its run about 1% (EXP-C26). *)
module Dense (R : Record) = struct
  type d = {
    index : R.t Oid.Tbl.t;
    mutable order : R.t array;
    mutable gone : int;
    mutable fresh : int;
  }

  let create () = { index = Oid.Tbl.create 32; order = [||]; gone = 0; fresh = 0 }
  let find d r = Oid.Tbl.find_opt d.index r
  let count d = Oid.Tbl.length d.index

  (* The [added] records, ascending by target, each moved to
     [in_view]. *)
  let take_added d =
    let xs = ref [] in
    Oid.Tbl.iter
      (fun _ x ->
        if R.view x = added then begin
          R.set_view x in_view;
          xs := x :: !xs
        end)
      d.index;
    d.fresh <- 0;
    let xs = Array.of_list !xs in
    Array.sort (fun x y -> Oid.compare (R.target x) (R.target y)) xs;
    xs

  let view d =
    if d.gone > 0 || d.fresh > 0 then begin
      let xs = take_added d and old = d.order in
      let m = Array.length xs in
      let order = Array.make (Array.length old - d.gone + m) R.dummy in
      let j = ref 0 and k = ref 0 in
      Array.iter
        (fun x ->
          if R.view x = in_view then begin
            let t = R.target x in
            while !j < m && Oid.compare (R.target xs.(!j)) t < 0 do
              order.(!k) <- xs.(!j);
              incr j;
              incr k
            done;
            order.(!k) <- x;
            incr k
          end)
        old;
      Array.blit xs !j order !k (m - !j);
      d.order <- order;
      d.gone <- 0
    end

  let add d r x =
    R.set_view x added;
    Oid.Tbl.add d.index r x;
    d.fresh <- d.fresh + 1

  let remove d r =
    match Oid.Tbl.find_opt d.index r with
    | None -> None
    | Some x ->
        Oid.Tbl.remove d.index r;
        if R.view x = in_view then d.gone <- d.gone + 1;
        R.set_view x removed;
        Some x

  let to_array d =
    view d;
    d.order

  let to_list d = Array.to_list (to_array d)
  let iter d f = Oid.Tbl.iter (fun _ x -> f x) d.index
end

module Ins = Dense (struct
  type t = Ioref.inref

  let target ir = ir.Ioref.ir_target
  let view ir = ir.Ioref.ir_view
  let set_view ir v = ir.Ioref.ir_view <- v
  let dummy = Ioref.make_inref (Oid.make ~site:(Site_id.of_int 0) ~index:0)
end)

module Outs = Dense (struct
  type t = Ioref.outref

  let target o = o.Ioref.or_target
  let view o = o.Ioref.or_view
  let set_view o v = o.Ioref.or_view <- v
  let dummy = Ioref.make_outref (Oid.make ~site:(Site_id.of_int 0) ~index:0)
end)

(* Size model for the memory-accounting gauges: words at 8 bytes, one
   record header plus one word per field, list cells at 3 words, set
   nodes at 4. An estimate, not a measurement — what matters is that
   it moves monotonically with the structures it tracks and is exact
   across runs (deterministic), so the bench can gate on it. [words]
   is kept by every write below that changes a modelled size, so
   reading it is O(1). *)
let word = 8
let record_words = 11
let source_words = 4
let visit_words = 4
let cell_words = 3

type t = {
  site : Site_id.t;
  ins : Ins.d;
  outs : Outs.d;
  mutable version : int;
  mutable last_inc : int;  (** the last outref incarnation handed out *)
  mutable words : int;
}

let create site =
  {
    site;
    ins = Ins.create ();
    outs = Outs.create ();
    version = 0;
    last_inc = 0;
    words = 0;
  }

let site t = t.site
let version t = t.version
let bump t = t.version <- t.version + 1
let account t n = t.words <- t.words + n

(* ---- inrefs ---- *)

let find_inref t r = Ins.find t.ins r

let ensure_inref t r =
  if not (Site_id.equal (Oid.site r) t.site) then
    invalid_arg "Tables.ensure_inref: reference not local to this site";
  match Ins.find t.ins r with
  | Some ir -> ir
  | None ->
      let ir = Ioref.make_inref r in
      Ins.add t.ins r ir;
      account t record_words;
      bump t;
      ir

let inref_words ir =
  record_words
  + (source_words * List.length ir.Ioref.ir_sources)
  + (visit_words * Trace_id.Set.cardinal ir.Ioref.ir_visited)
  + (cell_words * List.length ir.Ioref.ir_outset)

let remove_inref t r =
  Option.iter (fun ir -> account t (-inref_words ir)) (Ins.remove t.ins r);
  bump t

(* Byte accounting covers only records in the table. *)
let account_inref t ir n = if ir.Ioref.ir_view <> removed then account t n

let add_source t ir site ~dist ~inc =
  (match Ioref.find_source ir site with
  | Some s ->
      s.Ioref.src_dist <- min s.Ioref.src_dist dist;
      s.Ioref.src_inc <- max s.Ioref.src_inc inc
  | None ->
      ir.Ioref.ir_sources <-
        { Ioref.src_site = site; src_dist = dist; src_inc = inc }
        :: ir.Ioref.ir_sources;
      account_inref t ir source_words);
  bump t

let set_source_dist t ir site ~dist =
  match Ioref.find_source ir site with
  | Some s ->
      s.Ioref.src_dist <- dist;
      bump t
  | None -> ()

let remove_source t ir site =
  let before = List.length ir.Ioref.ir_sources in
  ir.Ioref.ir_sources <-
    List.filter
      (fun s -> not (Site_id.equal s.Ioref.src_site site))
      ir.Ioref.ir_sources;
  account_inref t ir
    (source_words * (List.length ir.Ioref.ir_sources - before));
  bump t

let flag_inref t ir =
  ir.Ioref.ir_flagged <- true;
  bump t

let set_inref_outset t ir l =
  let old = ir.Ioref.ir_outset in
  if l != old then begin
    account_inref t ir (cell_words * (List.length l - List.length old));
    ir.Ioref.ir_outset <- l
  end

let visit_inref t ir trace =
  let v = Trace_id.Set.add trace ir.Ioref.ir_visited in
  if v != ir.Ioref.ir_visited then begin
    ir.Ioref.ir_visited <- v;
    account_inref t ir visit_words
  end

let unvisit_inref t ir trace =
  let v = Trace_id.Set.remove trace ir.Ioref.ir_visited in
  if v != ir.Ioref.ir_visited then begin
    ir.Ioref.ir_visited <- v;
    account_inref t ir (-visit_words)
  end

let iter_inrefs t f = Ins.iter t.ins f
let inrefs t = Ins.to_list t.ins
let inref_array t = Ins.to_array t.ins
let inref_count t = Ins.count t.ins

(* ---- outrefs ---- *)

let find_outref t r = Outs.find t.outs r

let ensure_outref t ?(dist = 1) r =
  if Site_id.equal (Oid.site r) t.site then
    invalid_arg "Tables.ensure_outref: reference is local to this site";
  match Outs.find t.outs r with
  | Some o -> (o, false)
  | None ->
      t.last_inc <- t.last_inc + 1;
      let o = Ioref.make_outref ~dist ~inc:t.last_inc r in
      Outs.add t.outs r o;
      account t record_words;
      bump t;
      (o, true)

let outref_words o =
  record_words
  + (visit_words * Trace_id.Set.cardinal o.Ioref.or_visited)
  + (cell_words * List.length o.Ioref.or_inset)

let remove_outref t r =
  Option.iter (fun o -> account t (-outref_words o)) (Outs.remove t.outs r);
  bump t

let account_outref t o n = if o.Ioref.or_view <> removed then account t n

let set_outref_inset t o l =
  let old = o.Ioref.or_inset in
  if l != old then begin
    account_outref t o (cell_words * (List.length l - List.length old));
    o.Ioref.or_inset <- l
  end

let visit_outref t o trace =
  let v = Trace_id.Set.add trace o.Ioref.or_visited in
  if v != o.Ioref.or_visited then begin
    o.Ioref.or_visited <- v;
    account_outref t o visit_words
  end

let unvisit_outref t o trace =
  let v = Trace_id.Set.remove trace o.Ioref.or_visited in
  if v != o.Ioref.or_visited then begin
    o.Ioref.or_visited <- v;
    account_outref t o (-visit_words)
  end

let iter_outrefs t f = Outs.iter t.outs f
let outrefs t = Outs.to_list t.outs
let outref_array t = Outs.to_array t.outs
let outref_count t = Outs.count t.outs
let approx_bytes t = word * t.words

let pp ppf t =
  Format.fprintf ppf "@[<v>tables %a:@," Site_id.pp t.site;
  List.iter (fun ir -> Format.fprintf ppf "  %a@," Ioref.pp_inref ir) (inrefs t);
  List.iter
    (fun o -> Format.fprintf ppf "  %a@," Ioref.pp_outref o)
    (outrefs t);
  Format.fprintf ppf "@]"
