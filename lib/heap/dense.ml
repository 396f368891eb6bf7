open Dgc_prelude

type t = {
  d_site : Site_id.t;
  d_bound : int;
  d_present : Bytes.t;
  d_roots : Bytes.t;
  d_start : int array;
  d_codes : int array;
  d_pool : Oid.t array;
  d_count : int;
}

let site t = t.d_site
let bound t = t.d_bound
let object_count t = t.d_count

let present t i =
  i >= 0 && i < t.d_bound && Bytes.get t.d_present i <> '\000'

let is_root t i =
  i >= 0 && i < t.d_bound && Bytes.get t.d_roots i <> '\000'

let indices t =
  let acc = ref [] in
  for i = t.d_bound - 1 downto 0 do
    if Bytes.get t.d_present i <> '\000' then acc := i :: !acc
  done;
  !acc

let fields t i =
  if not (present t i) then []
  else begin
    let out = ref [] in
    for k = t.d_start.(i + 1) - 1 downto t.d_start.(i) do
      let c = t.d_codes.(k) in
      let oid =
        if c >= 0 then Oid.make ~site:t.d_site ~index:c
        else t.d_pool.(-c - 1)
      in
      out := oid :: !out
    done;
    !out
  end

(* One [Heap.iter] pass gathers each object's field list by index, then
   the CSR arrays fill in index order. The captured lists are shared
   with the heap, never copied: [Heap] replaces [o.fields] on every
   mutation and never mutates a list cell. Field order is preserved
   exactly (the trace's union-call sequence depends on it). *)
let of_heap heap =
  let site = Heap.site heap and bound = Heap.alloc_clock heap in
  let fields = Array.make bound [] in
  let d_present = Bytes.make (max bound 1) '\000' in
  let d_roots = Bytes.make (max bound 1) '\000' in
  Heap.iter heap (fun o ->
      let i = Oid.index o.Heap.oid in
      fields.(i) <- o.Heap.fields;
      Bytes.set d_present i '\001');
  List.iter (fun r -> Bytes.set d_roots (Oid.index r) '\001')
    (Heap.persistent_roots heap);
  let d_start = Array.make (bound + 1) 0 in
  for i = 0 to bound - 1 do
    d_start.(i + 1) <- d_start.(i) + List.length fields.(i)
  done;
  let d_codes = Array.make (max d_start.(bound) 1) 0 in
  (* The pool collects every target that is not an in-bound local
     index: remote references, plus (defensively) local oids outside
     [0, bound). Encoded as [-(pool_index + 1)]. *)
  let pool_rev = ref [] and n_pool = ref 0 in
  let rec fill k = function
    | [] -> ()
    | r :: tl ->
        let j = Oid.index r in
        d_codes.(k) <-
          (if Site_id.equal (Oid.site r) site && j >= 0 && j < bound then j
           else begin
             pool_rev := r :: !pool_rev;
             incr n_pool;
             - !n_pool
           end);
        fill (k + 1) tl
  in
  for i = 0 to bound - 1 do
    fill d_start.(i) fields.(i)
  done;
  {
    d_site = site;
    d_bound = bound;
    d_present;
    d_roots;
    d_start;
    d_codes;
    d_pool = Array.of_list (List.rev !pool_rev);
    d_count = Heap.object_count heap;
  }
