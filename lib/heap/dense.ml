open Dgc_prelude

type t = Heap.capture = {
  d_site : Site_id.t;
  d_bound : int;
  d_present : Bytes.t;
  d_roots : Bytes.t;
  d_start : int array;
  d_codes : int array;
  d_pool : Oid.t array;
  d_count : int;
}

let of_heap = Heap.capture
let site t = t.d_site
let bound t = t.d_bound
let object_count t = t.d_count

let present t i =
  i >= 0 && i < t.d_bound && Bytes.get t.d_present i <> '\000'

let is_root t i =
  i >= 0 && i < t.d_bound && Bytes.get t.d_roots i <> '\000'

(* Byte bitmaps hold 0 or 1 per index, so one 8-byte word answers for
   eight indices at once: [m land lnot p] is non-zero iff some byte is
   set in [m] and clear in [p]. *)
let covers ~present marked =
  let n = Bytes.length marked in
  let ok = ref true and i = ref 0 in
  while !ok && !i + 8 <= n do
    let m = Bytes.get_int64_ne marked !i
    and p = Bytes.get_int64_ne present !i in
    if Int64.logand m (Int64.lognot p) <> 0L then ok := false;
    i := !i + 8
  done;
  while !ok && !i < n do
    if Bytes.get marked !i <> '\000' && Bytes.get present !i = '\000' then
      ok := false;
    incr i
  done;
  !ok

let iter_set b f =
  let n = Bytes.length b in
  let i = ref 0 in
  while !i + 8 <= n do
    if Bytes.get_int64_ne b !i <> 0L then
      for j = !i to !i + 7 do
        if Bytes.unsafe_get b j <> '\000' then f j
      done;
    i := !i + 8
  done;
  for j = !i to n - 1 do
    if Bytes.unsafe_get b j <> '\000' then f j
  done

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
