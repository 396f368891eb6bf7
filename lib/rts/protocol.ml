open Dgc_prelude
open Dgc_heap

type ext = ..

type payload =
  | Move of { agent : int; refs : Oid.t list; token : int }
  | Move_ack of { token : int }
  | Insert of { r : Oid.t; by : Site_id.t; inc : int }
  | Insert_done of { r : Oid.t }
  | Update of { removals : (Oid.t * int) list; dists : (Oid.t * int) list }
  | Ext of ext

let ext_kinds : (ext -> string option) list ref = ref []
let register_ext_kind f = ext_kinds := f :: !ext_kinds
let ext_refs : (ext -> Oid.t list option) list ref = ref []
let register_ext_refs f = ext_refs := f :: !ext_refs

let kind = function
  | Move _ -> "move"
  | Move_ack _ -> "move_ack"
  | Insert _ -> "insert"
  | Insert_done _ -> "insert_done"
  | Update _ -> "update"
  | Ext e ->
      let rec search = function
        | [] -> "ext"
        | f :: tl -> ( match f e with Some k -> k | None -> search tl)
      in
      search !ext_kinds

let refs_carried = function
  | Move { refs; _ } -> refs
  | Move_ack _ | Insert_done _ | Update _ -> []
  | Insert { r; _ } -> [ r ]
  | Ext e ->
      let rec search = function
        | [] -> []
        | f :: tl -> ( match f e with Some refs -> refs | None -> search tl)
      in
      search !ext_refs

let is_ext = function Ext _ -> true | _ -> false

(* --- dispatch table --------------------------------------------------- *)

type 'ctx handlers = {
  h_move :
    'ctx -> src:Site_id.t -> agent:int -> refs:Oid.t list -> token:int -> unit;
  h_move_ack : 'ctx -> src:Site_id.t -> token:int -> unit;
  h_insert :
    'ctx -> src:Site_id.t -> r:Oid.t -> by:Site_id.t -> inc:int -> unit;
  h_insert_done : 'ctx -> src:Site_id.t -> r:Oid.t -> unit;
  h_update :
    'ctx ->
    src:Site_id.t ->
    removals:(Oid.t * int) list ->
    dists:(Oid.t * int) list ->
    unit;
  h_ext : 'ctx -> src:Site_id.t -> ext -> unit;
}

(* The one exhaustive match over [payload] in the code base: every
   receiver goes through this table, so a new constructor is a missing
   record field here (a type error) plus an inexhaustive match below (a
   fatal warning under the dev profile) — never a silent runtime drop. *)
let dispatch h ctx ~src = function
  | Move { agent; refs; token } -> h.h_move ctx ~src ~agent ~refs ~token
  | Move_ack { token } -> h.h_move_ack ctx ~src ~token
  | Insert { r; by; inc } -> h.h_insert ctx ~src ~r ~by ~inc
  | Insert_done { r } -> h.h_insert_done ctx ~src ~r
  | Update { removals; dists } -> h.h_update ctx ~src ~removals ~dists
  | Ext e -> h.h_ext ctx ~src e

let base_kinds = [ "move"; "move_ack"; "insert"; "insert_done"; "update"; "ext" ]

(* 16-byte header; 12 bytes per reference (site + index + tag, the tag
   holding an outref incarnation where one rides along); 16 per
   distance entry. Coarse, but uniform across collectors. *)
let approx_bytes p =
  let header = 16 in
  match p with
  | Move { refs; _ } -> header + 8 + (12 * List.length refs)
  | Move_ack _ -> header + 4
  | Insert _ -> header + 12 + 4
  | Insert_done _ -> header + 12
  | Update { removals; dists } ->
      header + (12 * List.length removals) + (16 * List.length dists)
  | Ext e ->
      let rec refs = function
        | [] -> []
        | f :: tl -> ( match f e with Some r -> r | None -> refs tl)
      in
      header + 16 + (12 * List.length (refs !ext_refs))
