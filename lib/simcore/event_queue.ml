type 'a entry = { at : Sim_time.t; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a entry array;
  (* [heap.(0)] is unused padding once empty; we manage [size] explicitly. *)
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }

let entry_before a b =
  match Sim_time.compare a.at b.at with
  | 0 -> a.seq < b.seq
  | c -> c < 0

let grow t =
  let cap = Array.length t.heap in
  if t.size >= cap then begin
    let dummy = t.heap.(0) in
    let fresh = Array.make (max 16 (2 * cap)) dummy in
    Array.blit t.heap 0 fresh 0 t.size;
    t.heap <- fresh
  end

let rec sift_up heap i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_before heap.(i) heap.(parent) then begin
      let tmp = heap.(i) in
      heap.(i) <- heap.(parent);
      heap.(parent) <- tmp;
      sift_up heap parent
    end
  end

let rec sift_down heap size i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < size && entry_before heap.(left) heap.(!smallest) then
    smallest := left;
  if right < size && entry_before heap.(right) heap.(!smallest) then
    smallest := right;
  if !smallest <> i then begin
    let tmp = heap.(i) in
    heap.(i) <- heap.(!smallest);
    heap.(!smallest) <- tmp;
    sift_down heap size !smallest
  end

let push t ~at payload =
  let e = { at; seq = t.next_seq; payload } in
  t.next_seq <- t.next_seq + 1;
  if Array.length t.heap = 0 then t.heap <- Array.make 16 e;
  grow t;
  t.heap.(t.size) <- e;
  t.size <- t.size + 1;
  sift_up t.heap (t.size - 1)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.heap.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.heap.(0) <- t.heap.(t.size);
      sift_down t.heap t.size 0
    end;
    Some (top.at, top.payload)
  end

(* Re-insert an entry popped by [pop_entry], keeping its original
   sequence number so tie-breaking order is unchanged. *)
let push_entry t e =
  if Array.length t.heap = 0 then t.heap <- Array.make 16 e;
  grow t;
  t.heap.(t.size) <- e;
  t.size <- t.size + 1;
  sift_up t.heap (t.size - 1)

let pop_entry t =
  if t.size = 0 then None
  else begin
    let top = t.heap.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.heap.(0) <- t.heap.(t.size);
      sift_down t.heap t.size 0
    end;
    Some top
  end

let pop_nth t n =
  if n < 0 || n >= t.size then None
  else begin
    (* Pop the n+1 earliest entries, keep the last, re-insert the rest
       with their original sequence numbers. O(n log size); schedule
       exploration only ever uses small n. *)
    let skipped = ref [] in
    for _ = 1 to n do
      match pop_entry t with
      | Some e -> skipped := e :: !skipped
      | None -> ()
    done;
    let picked = pop_entry t in
    List.iter (push_entry t) !skipped;
    Option.map (fun e -> (e.at, e.payload)) picked
  end

let peek_time t = if t.size = 0 then None else Some t.heap.(0).at
let is_empty t = t.size = 0
let length t = t.size
