open Dgc_prelude

type t = {
  counts : (int * int) option array;  (** per site: (sent, received) *)
  mutable waiting : int;
  mutable prev_received : int;  (** -1 before the first complete round *)
}

let create ~sites =
  { counts = Array.make sites None; waiting = 0; prev_received = -1 }

let start_round t ~participants =
  Array.fill t.counts 0 (Array.length t.counts) None;
  t.waiting <- participants

let reply t site ~sent ~received =
  let i = Site_id.to_int site in
  if t.counts.(i) = None then t.waiting <- t.waiting - 1;
  t.counts.(i) <- Some (sent, received);
  t.waiting = 0

let over t =
  let sent, received =
    Array.fold_left
      (fun (s, r) c ->
        match c with Some (s', r') -> (s + s', r + r') | None -> (s, r))
      (0, 0) t.counts
  in
  let over = sent = t.prev_received in
  t.prev_received <- received;
  over
