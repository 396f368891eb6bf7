(* Counters and fixed-bucket histograms. Histograms bucket
   observations on one set of bounds and answer percentile queries by
   linear interpolation inside the covering bucket. *)

type hist = {
  counts : int array;  (** one per bound, then the overflow bucket *)
  mutable h_n : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type hist_stats = {
  n : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
}

let create () = { counters = Hashtbl.create 32; hists = Hashtbl.create 16 }

let counter_ref t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t.counters name r;
      r

let incr t name = incr (counter_ref t name)
let add t name n =
  let r = counter_ref t name in
  r := !r + n

let get t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let counters t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* --- histograms ------------------------------------------------------- *)

(* Geometric bounds covering microseconds to ~1e8 in base 2: wide
   enough for millisecond latencies, byte sizes and small counts
   alike, at 2x resolution per bucket. *)
let bounds = Array.init 48 (fun i -> 1e-6 *. (2. ** float_of_int i))

let hist_ref t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
      let h =
        {
          counts = Array.make (Array.length bounds + 1) 0;
          h_n = 0;
          h_sum = 0.;
          h_min = infinity;
          h_max = neg_infinity;
        }
      in
      Hashtbl.add t.hists name h;
      h

let observe h x =
  let nb = Array.length bounds in
  (* First bucket whose upper bound covers x (binary search). *)
  let rec find lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if x <= bounds.(mid) then find lo mid else find (mid + 1) hi
  in
  let i = if x > bounds.(nb - 1) then nb else find 0 (nb - 1) in
  h.counts.(i) <- h.counts.(i) + 1;
  h.h_n <- h.h_n + 1;
  h.h_sum <- h.h_sum +. x;
  if x < h.h_min then h.h_min <- x;
  if x > h.h_max then h.h_max <- x

let hist_observe t name x = observe (hist_ref t name) x

let quantile_of h q =
  if h.h_n = 0 then Float.nan
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let rank = q *. float_of_int h.h_n in
    let nb = Array.length bounds in
    let rec walk i cum =
      if i > nb then h.h_max
      else
        let cum' = cum + h.counts.(i) in
        if float_of_int cum' >= rank && h.counts.(i) > 0 then begin
          (* Interpolate inside bucket i, clamped to the observed
             extremes so tiny histograms stay sensible. *)
          let lo = if i = 0 then Float.min h.h_min 0. else bounds.(i - 1) in
          let hi = if i >= nb then h.h_max else bounds.(i) in
          let lo = Float.max lo h.h_min and hi = Float.min hi h.h_max in
          let inside = rank -. float_of_int cum in
          lo
          +. (hi -. lo)
             *. Float.max 0.
                  (Float.min 1. (inside /. float_of_int h.counts.(i)))
        end
        else walk (i + 1) cum'
    in
    walk 0 0
  end

let stats_of h =
  {
    n = h.h_n;
    sum = h.h_sum;
    min = (if h.h_n = 0 then Float.nan else h.h_min);
    max = (if h.h_n = 0 then Float.nan else h.h_max);
    p50 = quantile_of h 0.5;
    p95 = quantile_of h 0.95;
    p99 = quantile_of h 0.99;
  }

let hist_stats t name =
  match Hashtbl.find_opt t.hists name with
  | None -> None
  | Some h -> Some (stats_of h)

let hists t =
  Hashtbl.fold (fun k h acc -> (k, stats_of h) :: acc) t.hists []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
