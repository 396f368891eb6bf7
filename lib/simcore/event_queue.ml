(* A binary min-heap kept as three parallel arrays: slot [i] holds the
   event at [times.(i)] (an unboxed float), its insertion sequence
   number [seqs.(i)] and its payload. The key is (time, seq); seqs are
   unique, so the order is total and every heap layout pops the same
   sequence. Sifts move a hole instead of swapping. A slot at or past
   [size] holds [dummy], so a popped payload can be collected. *)
type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable payloads : 'a array;
  dummy : 'a;
  mutable size : int;
  mutable next_seq : int;
}

let create ~dummy =
  { times = [||]; seqs = [||]; payloads = [||]; dummy; size = 0; next_seq = 0 }

let is_empty t = t.size = 0
let length t = t.size

let grow t =
  let cap = max 16 (2 * t.size) in
  let extend a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 t.size;
    a'
  in
  t.times <- extend t.times 0.;
  t.seqs <- extend t.seqs 0;
  t.payloads <- extend t.payloads t.dummy

(* Move the hole at [i] up until (at, seq) fits, then fill it. *)
let rec sift_up t i at seq p =
  let parent = (i - 1) / 2 in
  if i > 0
     && (at < t.times.(parent)
        || (at = t.times.(parent) && seq < t.seqs.(parent)))
  then begin
    t.times.(i) <- t.times.(parent);
    t.seqs.(i) <- t.seqs.(parent);
    t.payloads.(i) <- t.payloads.(parent);
    sift_up t parent at seq p
  end
  else begin
    t.times.(i) <- at;
    t.seqs.(i) <- seq;
    t.payloads.(i) <- p
  end

let insert t ~at ~seq p =
  if t.size = Array.length t.times then grow t;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) at seq p

let push t ~at p =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  insert t ~at ~seq p

(* Move the hole at [i] down until the event in slot [src] (past the
   heap's end, so never overwritten) fits, then fill it. *)
let rec sift_down t src i =
  let at = t.times.(src) and seq = t.seqs.(src) in
  let l = (2 * i) + 1 in
  let c =
    if l + 1 < t.size
       && (t.times.(l + 1) < t.times.(l)
          || (t.times.(l + 1) = t.times.(l) && t.seqs.(l + 1) < t.seqs.(l)))
    then l + 1
    else l
  in
  if c < t.size
     && (t.times.(c) < at || (t.times.(c) = at && t.seqs.(c) < seq))
  then begin
    t.times.(i) <- t.times.(c);
    t.seqs.(i) <- t.seqs.(c);
    t.payloads.(i) <- t.payloads.(c);
    sift_down t src c
  end
  else begin
    t.times.(i) <- at;
    t.seqs.(i) <- seq;
    t.payloads.(i) <- t.payloads.(src)
  end

(* Drop slot 0: the last event fills the hole. *)
let remove_min t =
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then sift_down t last 0;
  t.payloads.(last) <- t.dummy

let min_time t =
  if t.size = 0 then invalid_arg "Event_queue.min_time: empty queue";
  t.times.(0)

let pop_min t =
  if t.size = 0 then invalid_arg "Event_queue.pop_min: empty queue";
  let p = t.payloads.(0) in
  remove_min t;
  p

let pop_nth t n =
  if n < 0 || n >= t.size then None
  else begin
    (* Pop the n+1 earliest events, keep the last, re-insert the rest
       with their original sequence numbers. O(n log size); schedule
       exploration only ever uses small n. *)
    let skipped = ref [] in
    for _ = 1 to n do
      let at = t.times.(0) and seq = t.seqs.(0) in
      skipped := (at, seq, pop_min t) :: !skipped
    done;
    let at = t.times.(0) in
    let p = pop_min t in
    List.iter (fun (at, seq, p) -> insert t ~at ~seq p) !skipped;
    Some (at, p)
  end
