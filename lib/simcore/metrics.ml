(* Counters, samples and fixed-bucket histograms.

   Samples keep raw observations (optionally bounded by reservoir
   sampling so a registry can stay attached to a long run); histograms
   bucket observations on creation-time bounds and answer percentile
   queries by linear interpolation inside the covering bucket. *)

type samples = {
  mutable xs : float array;
  mutable len : int;  (** slots of [xs] in use *)
  mutable n_obs : int;  (** observations ever made *)
  mutable sum : float;
  mutable mx : float;
  mutable lcg : int;  (** private reservoir randomness *)
  cap : int option;
}

type hist = {
  bounds : float array;  (** upper bounds, strictly increasing *)
  counts : int array;  (** length [Array.length bounds + 1]; last = overflow *)
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
  samples : (string, samples) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
  sample_cap : int option;
  mutable on_bucket_mismatch : (string -> unit) option;
}

let create ?sample_cap () =
  (match sample_cap with
  | Some c when c <= 0 -> invalid_arg "Metrics.create: sample_cap"
  | _ -> ());
  {
    counters = Hashtbl.create 32;
    samples = Hashtbl.create 16;
    hists = Hashtbl.create 16;
    sample_cap;
    on_bucket_mismatch = None;
  }

let set_on_bucket_mismatch t f = t.on_bucket_mismatch <- Some f

let reset t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.samples;
  Hashtbl.reset t.hists

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

(* --- samples ---------------------------------------------------------- *)

let sample_ref t name =
  match Hashtbl.find_opt t.samples name with
  | Some s -> s
  | None ->
      let s =
        {
          xs = Array.make 8 0.;
          len = 0;
          n_obs = 0;
          sum = 0.;
          mx = neg_infinity;
          lcg = 0x2545F49 + Hashtbl.hash name;
          cap = t.sample_cap;
        }
      in
      Hashtbl.add t.samples name s;
      s

(* Deterministic private randomness: good enough for reservoir index
   selection, avoids touching the simulation's seeded stream. *)
let lcg_next s bound =
  s.lcg <- ((s.lcg * 1103515245) + 12345) land 0x3FFFFFFF;
  s.lcg mod bound

let observe t name x =
  let s = sample_ref t name in
  s.n_obs <- s.n_obs + 1;
  s.sum <- s.sum +. x;
  if x > s.mx then s.mx <- x;
  let full = match s.cap with Some c -> s.len >= c | None -> false in
  if full then begin
    (* Reservoir: each observation survives with probability cap/n. *)
    let j = lcg_next s s.n_obs in
    if j < s.len then s.xs.(j) <- x
  end
  else begin
    if s.len = Array.length s.xs then begin
      let grown = Array.make (2 * s.len) 0. in
      Array.blit s.xs 0 grown 0 s.len;
      s.xs <- grown
    end;
    s.xs.(s.len) <- x;
    s.len <- s.len + 1
  end

let samples t name =
  match Hashtbl.find_opt t.samples name with
  | Some s -> Array.to_list (Array.sub s.xs 0 s.len)
  | None -> []

let observed t name =
  match Hashtbl.find_opt t.samples name with Some s -> s.n_obs | None -> 0

let mean t name =
  match Hashtbl.find_opt t.samples name with
  | Some s when s.n_obs > 0 -> s.sum /. float_of_int s.n_obs
  | _ -> Float.nan

let max_sample t name =
  match Hashtbl.find_opt t.samples name with
  | Some s -> s.mx
  | None -> neg_infinity

(* --- histograms ------------------------------------------------------- *)

(* Geometric bounds covering microseconds to ~1e8 in base 2: wide
   enough for millisecond latencies, byte sizes and small counts
   alike, at 2x resolution per bucket. *)
let default_buckets = Array.init 48 (fun i -> 1e-6 *. (2. ** float_of_int i))

let hist_ref t ?buckets name =
  match Hashtbl.find_opt t.hists name with
  | Some h ->
      (* The bounds are fixed at creation; a later [?buckets] that
         disagrees would silently measure into the wrong bins. *)
      (match buckets with
      | Some b when b <> h.bounds -> (
          (* Name both specs in full: a mismatch report that does not
             say which registration conflicted cannot be acted on. *)
          let spec a =
            Array.to_list a |> List.map (Printf.sprintf "%g")
            |> String.concat "; "
            |> Printf.sprintf "[%s]"
          in
          let msg =
            Printf.sprintf
              "histogram %S: ?buckets disagrees with existing bounds \
               (given %s vs %s in use); keeping the original"
              name (spec b) (spec h.bounds)
          in
          match t.on_bucket_mismatch with
          | Some f -> f msg
          | None -> ())
      | _ -> ());
      h
  | None ->
      let bounds =
        match buckets with
        | Some b ->
            if Array.length b = 0 then invalid_arg "Metrics: empty buckets";
            Array.iteri
              (fun i x ->
                if i > 0 && x <= b.(i - 1) then
                  invalid_arg "Metrics: buckets must increase")
              b;
            Array.copy b
        | None -> default_buckets
      in
      let h =
        {
          bounds;
          counts = Array.make (Array.length bounds + 1) 0;
          h_n = 0;
          h_sum = 0.;
          h_min = infinity;
          h_max = neg_infinity;
        }
      in
      Hashtbl.add t.hists name h;
      h

let hist_observe t ?buckets name x =
  let h = hist_ref t ?buckets name in
  let nb = Array.length h.bounds in
  (* First bucket whose upper bound covers x (binary search). *)
  let rec find lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if x <= h.bounds.(mid) then find lo mid else find (mid + 1) hi
  in
  let i = if x > h.bounds.(nb - 1) then nb else find 0 (nb - 1) in
  h.counts.(i) <- h.counts.(i) + 1;
  h.h_n <- h.h_n + 1;
  h.h_sum <- h.h_sum +. x;
  if x < h.h_min then h.h_min <- x;
  if x > h.h_max then h.h_max <- x

let quantile_of h q =
  if h.h_n = 0 then Float.nan
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let rank = q *. float_of_int h.h_n in
    let nb = Array.length h.bounds in
    let rec walk i cum =
      if i > nb then h.h_max
      else
        let cum' = cum + h.counts.(i) in
        if float_of_int cum' >= rank && h.counts.(i) > 0 then begin
          (* Interpolate inside bucket i, clamped to the observed
             extremes so tiny histograms stay sensible. *)
          let lo = if i = 0 then Float.min h.h_min 0. else h.bounds.(i - 1) in
          let hi = if i >= nb then h.h_max else h.bounds.(i) in
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

let hist_quantile t name q =
  match Hashtbl.find_opt t.hists name with
  | None -> None
  | Some h -> if h.h_n = 0 then None else Some (quantile_of h q)

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

(* --- printing --------------------------------------------------------- *)

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (name, v) -> Format.fprintf ppf "%-40s %d@," name v)
    (counters t);
  let sorted_samples =
    Hashtbl.fold (fun k s acc -> (k, s) :: acc) t.samples []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (name, s) ->
      Format.fprintf ppf "%-40s n=%d mean=%.2f@," name s.n_obs
        (if s.n_obs = 0 then Float.nan else s.sum /. float_of_int s.n_obs))
    sorted_samples;
  List.iter
    (fun (name, st) ->
      Format.fprintf ppf "%-40s n=%d p50=%.2f p95=%.2f p99=%.2f max=%.2f@,"
        name st.n st.p50 st.p95 st.p99 st.max)
    (hists t);
  Format.fprintf ppf "@]"
