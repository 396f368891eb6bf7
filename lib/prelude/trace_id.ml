type t = { initiator : Site_id.t; seq : int }

let make ~initiator ~seq = { initiator; seq }

let equal a b = Site_id.equal a.initiator b.initiator && Int.equal a.seq b.seq

let compare a b =
  match Site_id.compare a.initiator b.initiator with
  | 0 -> Int.compare a.seq b.seq
  | c -> c

let pp ppf t = Format.fprintf ppf "T%a.%d" Site_id.pp t.initiator t.seq

(* Plain concatenation, byte-equal to [pp]: span trace keys are built
   per back-trace message. *)
let to_string t =
  "T" ^ Site_id.to_string t.initiator ^ "." ^ string_of_int t.seq

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
