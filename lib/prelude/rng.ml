type t = Random.State.t

let create ~seed = Random.State.make [| seed; 0x6d6c3937 |]

let split t = Random.State.make [| Random.State.bits t; Random.State.bits t |]
let int t n = Random.State.int t n

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + Random.State.int t (hi - lo + 1)

let float t x = Random.State.float t x
let float_in t lo hi = lo +. Random.State.float t (hi -. lo)
let bool t = Random.State.bool t
let chance t p = Random.State.float t 1.0 < p

let choose t = function
  | [] -> invalid_arg "Rng.choose: empty list"
  | l -> List.nth l (int t (List.length l))

let choose_arr t a =
  if Array.length a = 0 then invalid_arg "Rng.choose_arr: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a
