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
