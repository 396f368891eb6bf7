open Dgc_heap

type id = int

(* Canonical sets are sorted [Oid.t array]s; interning hashes them
   directly (elementwise, no polymorphic traversal of a list spine). *)
module Key = struct
  type t = Oid.t array

  let equal a b =
    let la = Array.length a in
    la = Array.length b
    &&
    let rec go i = i < 0 || (Oid.equal a.(i) b.(i) && go (i - 1)) in
    go (la - 1)

  let hash a =
    let h = ref (Array.length a) in
    for i = 0 to Array.length a - 1 do
      h := (!h * 31) + Oid.hash a.(i)
    done;
    !h land max_int
end

module Ktbl = Hashtbl.Make (Key)

(* Union memo keyed by the packed id pair (x < y, ids are small). *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

type t = {
  mutable sets : Oid.t array array;  (** id -> sorted elements *)
  mutable count : int;
  mutable elems : int;  (** total size of the interned sets *)
  interned : id Ktbl.t;  (** canonical form -> id *)
  memo : id Itbl.t;
  mutable singles : int;  (** distinct singletons interned *)
  memoize : bool;
  mutable u_calls : int;
  mutable u_hits : int;
}

type stats = {
  distinct : int;
  union_calls : int;
  memo_hits : int;
  elements_stored : int;
}

let create ?(memoize = true) () =
  let t =
    {
      sets = Array.make 16 [||];
      count = 0;
      elems = 0;
      interned = Ktbl.create 64;
      memo = Itbl.create 64;
      singles = 0;
      memoize;
      u_calls = 0;
      u_hits = 0;
    }
  in
  (* id 0 is the empty set *)
  Ktbl.add t.interned [||] 0;
  t.count <- 1;
  t

(* [sorted] is owned by the store after this call. *)
let intern t sorted =
  match Ktbl.find_opt t.interned sorted with
  | Some id -> id
  | None ->
      let id = t.count in
      if id >= Array.length t.sets then begin
        let fresh = Array.make (2 * Array.length t.sets) [||] in
        Array.blit t.sets 0 fresh 0 t.count;
        t.sets <- fresh
      end;
      t.sets.(id) <- sorted;
      t.count <- id + 1;
      t.elems <- t.elems + Array.length sorted;
      Ktbl.add t.interned sorted id;
      id

let empty _t = 0

(* No union yields a singleton (a union of two distinct non-empty sets
   has two elements or more), so a new id here is a new singleton. *)
let singleton t r =
  let count = t.count in
  let id = intern t [| r |] in
  if t.count > count then t.singles <- t.singles + 1;
  id

let merge_sorted a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 then b
  else if lb = 0 then a
  else begin
    let out = Array.make (la + lb) a.(0) in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < la && !j < lb do
      let c = Oid.compare a.(!i) b.(!j) in
      if c < 0 then begin
        out.(!k) <- a.(!i);
        incr i
      end
      else if c > 0 then begin
        out.(!k) <- b.(!j);
        incr j
      end
      else begin
        out.(!k) <- a.(!i);
        incr i;
        incr j
      end;
      incr k
    done;
    while !i < la do
      out.(!k) <- a.(!i);
      incr i;
      incr k
    done;
    while !j < lb do
      out.(!k) <- b.(!j);
      incr j;
      incr k
    done;
    if !k = la + lb then out else Array.sub out 0 !k
  end

let union t x y =
  if x = y then x
  else if x = 0 then y
  else if y = 0 then x
  else begin
    t.u_calls <- t.u_calls + 1;
    let key = if x < y then (x lsl 31) lor y else (y lsl 31) lor x in
    match if t.memoize then Itbl.find_opt t.memo key else None with
    | Some id ->
        t.u_hits <- t.u_hits + 1;
        id
    | None ->
        let merged = merge_sorted t.sets.(x) t.sets.(y) in
        let id = intern t merged in
        if t.memoize then Itbl.add t.memo key id;
        id
  end

let add t x r = union t x (singleton t r)
let elements t id = Array.to_list t.sets.(id)
let cardinal t id = Array.length t.sets.(id)
let is_empty_id _t id = id = 0

let stats t =
  {
    distinct = t.count;
    union_calls = t.u_calls;
    memo_hits = t.u_hits;
    elements_stored = t.elems;
  }

(* Same fixed size model as [Tables.approx_bytes]: 8-byte words, one
   word per stored element, small per-entry constants for the interning
   and memo tables. Deterministic, so gauges built on it are gateable. *)
let approx_bytes t =
  let word = 8 in
  word * (t.elems + (3 * t.count) + (3 * Itbl.length t.memo) + (3 * t.singles))
