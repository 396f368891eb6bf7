type level = Debug | Info | Warn

let level_name = function Debug -> "debug" | Info -> "info" | Warn -> "warn"
let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2

type entry = { at : Sim_time.t; level : level; cat : string; text : string }

type t = {
  buf : entry option array;
  mutable next : int;  (** write cursor *)
  mutable total : int;
}

let create ?(capacity = 2048) () =
  if capacity <= 0 then invalid_arg "Journal.create: capacity";
  { buf = Array.make capacity None; next = 0; total = 0 }

let add t e =
  t.buf.(t.next) <- Some e;
  t.next <- (t.next + 1) mod Array.length t.buf;
  t.total <- t.total + 1

let fold_oldest_first t f acc =
  let cap = Array.length t.buf in
  let start = if t.total >= cap then t.next else 0 in
  let n = min t.total cap in
  let rec go i acc =
    if i >= n then acc
    else
      match t.buf.((start + i) mod cap) with
      | Some e -> go (i + 1) (f acc e)
      | None -> go (i + 1) acc
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
