open Dgc_prelude

(* [site lsl index_bits lor index]: an immediate int, so integer order
   is (site, index) order and an oid costs no allocation. *)
type t = int

let index_bits = 40
let max_index = (1 lsl index_bits) - 1
let max_site = max_int lsr index_bits

let make ~site ~index =
  let s = Site_id.to_int site in
  if s > max_site then invalid_arg "Oid.make: site out of range";
  if index < 0 || index > max_index then
    invalid_arg "Oid.make: index out of range";
  (s lsl index_bits) lor index

let site t = Site_id.of_int (t lsr index_bits)
let index t = t land max_index
let equal = Int.equal
let compare = Int.compare
let hash t = ((t lsr index_bits) * 1_000_003) + index t
let pp ppf t = Format.fprintf ppf "%a/o%d" Site_id.pp (site t) (index t)

(* Plain concatenation, byte-equal to [pp]. *)
let to_string t =
  Site_id.to_string (site t) ^ "/o" ^ string_of_int (index t)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
