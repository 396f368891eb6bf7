type t = int

let of_int i =
  if i < 0 then invalid_arg "Site_id.of_int: negative";
  i

let to_int i = i
let equal = Int.equal
let compare = Int.compare
let hash i = i
let to_string i = "S" ^ string_of_int i
let pp ppf i = Format.pp_print_string ppf (to_string i)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

let set_of_list l = Set.of_list l
