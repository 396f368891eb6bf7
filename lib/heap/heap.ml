open Dgc_prelude

type obj = { oid : Oid.t; fields : Oid.t list; size : int }

type capture = {
  d_site : Site_id.t;
  d_bound : int;
  d_present : Bytes.t;
  d_roots : Bytes.t;
  d_start : int array;
  d_codes : int array;
  d_pool : Oid.t array;
  d_count : int;
}

(* Struct of arrays, addressed by local index: [fields.(i)] and
   [sizes.(i)] belong to the object allocated with index [i] while it
   is live, and are [] and 0 otherwise (so a freed object's fields are
   not kept reachable). The live bitset says which indices are
   occupied; every read checks it first. No per-object record exists:
   {!obj} is a view built on demand. *)
type t = {
  site : Site_id.t;
  mutable fields : Oid.t list array;  (** length >= [next_index] *)
  mutable sizes : int array;  (** length = [Array.length fields] *)
  mutable live : Bytes.t;
      (** byte per index, 1 iff live, else 0; length = [Array.length fields] *)
  mutable next_index : int;
  mutable count : int;  (** live objects *)
  mutable roots : Oid.t list;
  mutable resident : int;  (** running sum of live object sizes *)
  mutable shape : capture option;
      (** last capture; dropped by every write that changes the shape *)
  mutable builds : int;  (** captures built so far *)
  mutable frees : int;  (** objects freed so far *)
}

let create site =
  {
    site;
    fields = Array.make 16 [];
    sizes = Array.make 16 0;
    live = Bytes.make 16 '\000';
    next_index = 0;
    count = 0;
    roots = [];
    resident = 0;
    shape = None;
    builds = 0;
    frees = 0;
  }

let site t = t.site
let invalidate t = t.shape <- None
let live_at t i = Bytes.unsafe_get t.live i <> '\000'

let alloc ?(size = 1) t =
  let index = t.next_index in
  let oid = Oid.make ~site:t.site ~index in
  t.next_index <- index + 1;
  if index >= Array.length t.fields then begin
    let n = 2 * Array.length t.fields in
    let fields = Array.make n [] and sizes = Array.make n 0 in
    let live = Bytes.make n '\000' in
    Array.blit t.fields 0 fields 0 index;
    Array.blit t.sizes 0 sizes 0 index;
    Bytes.blit t.live 0 live 0 index;
    t.fields <- fields;
    t.sizes <- sizes;
    t.live <- live
  end;
  t.sizes.(index) <- size;
  Bytes.set t.live index '\001';
  t.count <- t.count + 1;
  t.resident <- t.resident + size;
  invalidate t;
  oid

let bytes_resident t = t.resident

let alloc_clock t = t.next_index

let mem t oid =
  Site_id.equal (Oid.site oid) t.site
  &&
  let i = Oid.index oid in
  i < t.next_index && live_at t i

let view t i =
  { oid = Oid.make ~site:t.site ~index:i; fields = t.fields.(i);
    size = t.sizes.(i) }

let find t oid = if mem t oid then Some (view t (Oid.index oid)) else None
let get t oid = if mem t oid then view t (Oid.index oid) else raise Not_found
let fields t oid = if mem t oid then t.fields.(Oid.index oid) else []

let add_field t ~obj ~target =
  if not (mem t obj) then raise Not_found;
  let i = Oid.index obj in
  t.fields.(i) <- target :: t.fields.(i);
  invalidate t

let remove_field t ~obj ~target =
  mem t obj
  &&
  let i = Oid.index obj in
  let removed = ref false in
  let rec drop_one = function
    | [] -> []
    | x :: tl ->
        if Oid.equal x target then begin
          removed := true;
          tl
        end
        else x :: drop_one tl
  in
  let rest = drop_one t.fields.(i) in
  if !removed then begin
    t.fields.(i) <- rest;
    invalidate t
  end;
  !removed

let clear_fields t oid =
  if mem t oid then begin
    t.fields.(Oid.index oid) <- [];
    invalidate t
  end

let iter t f =
  for i = 0 to t.next_index - 1 do
    if live_at t i then f (view t i)
  done

let retarget t ~old_oid ~fresh =
  for i = 0 to t.next_index - 1 do
    let fs = t.fields.(i) in
    if List.exists (Oid.equal old_oid) fs then
      t.fields.(i) <-
        List.map (fun z -> if Oid.equal z old_oid then fresh else z) fs
  done;
  invalidate t

let add_persistent_root t oid =
  if not (mem t oid) then
    invalid_arg "Heap.add_persistent_root: not a live local object";
  if not (List.exists (Oid.equal oid) t.roots) then begin
    t.roots <- oid :: t.roots;
    invalidate t
  end

let persistent_roots t = t.roots

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun o -> acc := f !acc o);
  !acc

let object_count t = t.count

let indices t =
  let acc = ref [] in
  for i = t.next_index - 1 downto 0 do
    if live_at t i then acc := i :: !acc
  done;
  !acc

(* Freeing leaves the shape alone: a capture's row for a freed index
   goes stale but is never read, since every reader checks
   [d_present] first. *)
let free t = function
  | [] -> 0
  | idxs ->
      (* Root indices once up front, not a root-list walk per freed
         index. *)
      let root_idx = Hashtbl.create (max 8 (List.length t.roots)) in
      List.iter (fun r -> Hashtbl.replace root_idx (Oid.index r) ()) t.roots;
      let n =
        List.fold_left
          (fun n i ->
            if
              i >= 0 && i < t.next_index && live_at t i
              && not (Hashtbl.mem root_idx i)
            then begin
              t.resident <- t.resident - t.sizes.(i);
              t.fields.(i) <- [];
              t.sizes.(i) <- 0;
              Bytes.set t.live i '\000';
              n + 1
            end
            else n)
          0 idxs
      in
      t.count <- t.count - n;
      t.frees <- t.frees + n;
      n

let mark t ~marked ~remote roots =
  let stack = ref [] in
  let visit r =
    if Site_id.equal (Oid.site r) t.site then begin
      if mem t r && not (Oid.Tbl.mem marked r) then begin
        Oid.Tbl.add marked r ();
        stack := r :: !stack
      end
    end
    else remote r
  in
  List.iter visit roots;
  let rec drain () =
    match !stack with
    | [] -> ()
    | r :: tl ->
        stack := tl;
        List.iter visit (fields t r);
        drain ()
  in
  drain ()

let frees t = t.frees
let generation t = match t.shape with Some _ -> t.builds | None -> -1

(* The CSR arrays fill in index order straight from [fields] (a
   freed index has none). The field lists are read, never copied:
   [Heap] replaces [fields.(i)] on every write and never mutates a list
   cell. Field order is preserved exactly (the trace's union-call
   sequence depends on it). *)
let build t ~present =
  let site = t.site and bound = t.next_index in
  let fields = t.fields in
  t.builds <- t.builds + 1;
  let d_roots = Bytes.make (max bound 1) '\000' in
  List.iter (fun r -> Bytes.set d_roots (Oid.index r) '\001') t.roots;
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
    d_present = present;
    d_roots;
    d_start;
    d_codes;
    d_pool = Array.of_list (List.rev !pool_rev);
    d_count = t.count;
  }

(* Until the shape changes, a capture is the cached CSR arrays plus a
   copy of the live bitset: only frees happened since, and they only
   clear bits. *)
let capture t =
  let present = Bytes.sub t.live 0 (max t.next_index 1) in
  match t.shape with
  | Some c -> { c with d_present = present; d_count = t.count }
  | None ->
      let c = build t ~present in
      t.shape <- Some c;
      c

let pp ppf t =
  Format.fprintf ppf "@[<v>heap %a: %d objects, roots [%a]@," Site_id.pp
    t.site (object_count t)
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Oid.pp)
    t.roots;
  iter t (fun o ->
      Format.fprintf ppf "  %a -> [%a]@," Oid.pp o.oid
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
           Oid.pp)
        o.fields);
  Format.fprintf ppf "@]"
