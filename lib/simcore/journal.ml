type level = Debug | Info | Warn

let level_name = function Debug -> "debug" | Info -> "info" | Warn -> "warn"
let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2

type entry = { at : Sim_time.t; level : level; cat : string; text : string }

(* The buffer starts small and doubles whenever it is full, up to
   [cap]; only then does the ring wrap. Below [cap] a full buffer holds
   the entries at [0 .. total-1] with the cursor wrapped to 0, so
   growing is a prefix copy that puts the cursor back at the end. *)
type t = {
  cap : int;
  mutable buf : entry array;
  mutable next : int;  (** write cursor *)
  mutable total : int;
}

let filler = { at = Sim_time.zero; level = Debug; cat = ""; text = "" }
let initial = 16

let create ?(capacity = 2048) () =
  if capacity <= 0 then invalid_arg "Journal.create: capacity";
  {
    cap = capacity;
    buf = Array.make (min capacity initial) filler;
    next = 0;
    total = 0;
  }

let add t e =
  let len = Array.length t.buf in
  if t.total = len && len < t.cap then begin
    let buf = Array.make (min t.cap (2 * len)) filler in
    Array.blit t.buf 0 buf 0 len;
    t.buf <- buf;
    t.next <- len
  end;
  t.buf.(t.next) <- e;
  t.next <- (t.next + 1) mod Array.length t.buf;
  t.total <- t.total + 1

let fold_oldest_first t f acc =
  let cap = Array.length t.buf in
  let start = if t.total >= cap then t.next else 0 in
  let n = min t.total cap in
  let rec go i acc =
    if i >= n then acc else go (i + 1) (f acc t.buf.((start + i) mod cap))
  in
  go 0 acc

let keep_last last l =
  match last with
  | None -> l
  | Some n ->
      let len = List.length l in
      if len <= n then l else List.filteri (fun i _ -> i >= len - n) l

let entries ?cat ?min_level ?last t =
  fold_oldest_first t
    (fun acc e ->
      let cat_ok = match cat with Some c -> c = e.cat | None -> true in
      let lvl_ok =
        match min_level with
        | Some l -> level_rank e.level >= level_rank l
        | None -> true
      in
      if cat_ok && lvl_ok then e :: acc else acc)
    []
  |> List.rev |> keep_last last

let pp_entry ppf e =
  Format.fprintf ppf "%a %-5s [%s] %s" Sim_time.pp e.at (level_name e.level)
    e.cat e.text
