let list_sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let list_take n l =
  let rec loop n acc = function
    | [] -> List.rev acc
    | _ when n <= 0 -> List.rev acc
    | x :: tl -> loop (n - 1) (x :: acc) tl
  in
  loop n [] l

let list_dedup ~compare l =
  let sorted = List.sort compare l in
  let rec loop acc = function
    | [] -> List.rev acc
    | [ x ] -> List.rev (x :: acc)
    | x :: (y :: _ as tl) ->
        if compare x y = 0 then loop acc tl else loop (x :: acc) tl
  in
  loop [] sorted
