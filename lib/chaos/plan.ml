open Dgc_prelude
module Json = Dgc_telemetry.Json

type event =
  | Crash of { site : int }
  | Partition of { groups : int list list }
  | Drop of { p : float }
  | Dup of { p : float }
  | Slow of { factor : float }

type timed = { at_ms : float; dur_ms : float; ev : event }
type t = { events : timed list }

let schema = "dgc.plan/1"
let empty = { events = [] }
let length t = List.length t.events

let kind_name = function
  | Crash _ -> "crash"
  | Partition _ -> "partition"
  | Drop _ -> "drop"
  | Dup _ -> "dup"
  | Slow _ -> "slow"

(* ---- encoding -------------------------------------------------------- *)

let event_fields = function
  | Crash { site } -> [ ("site", Json.Int site) ]
  | Partition { groups } ->
      [
        ( "groups",
          Json.Arr
            (List.map
               (fun g -> Json.Arr (List.map (fun s -> Json.Int s) g))
               groups) );
      ]
  | Drop { p } -> [ ("p", Json.Float p) ]
  | Dup { p } -> [ ("p", Json.Float p) ]
  | Slow { factor } -> [ ("factor", Json.Float factor) ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ( "events",
        Json.Arr
          (List.map
             (fun e ->
               Json.Obj
                 ([
                    ("kind", Json.Str (kind_name e.ev));
                    ("at_ms", Json.Float e.at_ms);
                    ("dur_ms", Json.Float e.dur_ms);
                  ]
                 @ event_fields e.ev))
             t.events) );
    ]

(* ---- decoding -------------------------------------------------------- *)

let ( let* ) = Result.bind

let group_of_json g =
  match Json.to_list_opt g with
  | None -> Error "partition group: expected an array of sites"
  | Some sites ->
      Json.list_map
        (fun s ->
          Option.to_result ~none:"partition group: expected integer sites"
            (Json.to_int_opt s))
        sites

let event_of_json j =
  let* kind = Json.str_field "kind" j in
  let* at_ms = Json.float_field "at_ms" j in
  let* dur_ms = Json.float_field "dur_ms" j in
  let* ev =
    match kind with
    | "crash" ->
        let* site = Json.int_field "site" j in
        Ok (Crash { site })
    | "partition" ->
        let* groups = Json.list_field "groups" j in
        let* groups = Json.list_map group_of_json groups in
        Ok (Partition { groups })
    | "drop" ->
        let* p = Json.float_field "p" j in
        Ok (Drop { p })
    | "dup" ->
        let* p = Json.float_field "p" j in
        Ok (Dup { p })
    | "slow" ->
        let* factor = Json.float_field "factor" j in
        Ok (Slow { factor })
    | other -> Error (Printf.sprintf "unknown fault kind %S" other)
  in
  if at_ms < 0. || dur_ms < 0. then Error "at_ms/dur_ms must be non-negative"
  else Ok { at_ms; dur_ms; ev }

let of_json j =
  let* () = Json.expect_schema schema j in
  let* evs = Json.list_field "events" j in
  let* events =
    Json.list_map
      (fun (i, e) ->
        Result.map_error (Printf.sprintf "event %d: %s" i) (event_of_json e))
      (List.mapi (fun i e -> (i, e)) evs)
  in
  Ok { events }

(* ---- validation ------------------------------------------------------ *)

(* What [of_json] cannot check without knowing the deployment: site
   ranges. Probabilities and factors are bounded here too so the fuzz
   mutators have one contract to satisfy (the injector itself is
   lenient — it skips out-of-range sites and clamps nothing). *)
let validate ~sites t =
  let err fmt = Printf.ksprintf Result.error fmt in
  let rec go i = function
    | [] -> Ok ()
    | { at_ms; dur_ms; ev } :: tl ->
        if at_ms < 0. || not (Float.is_finite at_ms) then
          err "event %d: negative or non-finite at_ms" i
        else if dur_ms < 0. || not (Float.is_finite dur_ms) then
          err "event %d: negative or non-finite dur_ms" i
        else
          let ok =
            match ev with
            | Crash { site } ->
                if site < 0 || site >= sites then
                  err "event %d: crash site %d out of range [0,%d)" i site sites
                else Ok ()
            | Partition { groups } ->
                if
                  List.exists
                    (List.exists (fun s -> s < 0 || s >= sites))
                    groups
                then err "event %d: partition names an out-of-range site" i
                else Ok ()
            | Drop { p } | Dup { p } ->
                if p < 0. || p > 1. || not (Float.is_finite p) then
                  err "event %d: probability %g outside [0,1]" i p
                else Ok ()
            | Slow { factor } ->
                if factor <= 0. || not (Float.is_finite factor) then
                  err "event %d: latency factor %g not positive" i factor
                else Ok ()
          in
          let* () = ok in
          go (i + 1) tl
  in
  go 0 t.events

(* ---- generation ------------------------------------------------------ *)

let random_event rng ~sites =
  match Rng.int rng 5 with
  | 0 -> Crash { site = Rng.int rng sites }
  | 1 ->
      let all = List.init sites Fun.id in
      let left = List.filter (fun _ -> Rng.bool rng) all in
      let left = if left = [] then [ 0 ] else left in
      let right = List.filter (fun s -> not (List.mem s left)) all in
      Partition { groups = (if right = [] then [ left ] else [ left; right ]) }
  | 2 -> Drop { p = Rng.float_in rng 0.3 1.0 }
  | 3 -> Dup { p = Rng.float_in rng 0.2 0.8 }
  | _ -> Slow { factor = Rng.float_in rng 2. 10. }

let random ~rng ~sites ~horizon_ms ~events =
  (* explicit loop: List.init's application order is unspecified and
     the rng stream must be reproducible *)
  let rec draw n acc =
    if n = 0 then acc
    else
      let at_ms = Rng.float_in rng 0. (0.75 *. horizon_ms) in
      let dur_ms = Rng.float_in rng (horizon_ms /. 20.) (horizon_ms /. 4.) in
      let ev = random_event rng ~sites in
      draw (n - 1) ({ at_ms; dur_ms; ev } :: acc)
  in
  let evs = draw (max 0 events) [] in
  { events = List.stable_sort (fun a b -> Float.compare a.at_ms b.at_ms) evs }

(* ---- printing -------------------------------------------------------- *)

let pp_event ppf = function
  | Crash { site } -> Format.fprintf ppf "crash site %d" site
  | Partition { groups } ->
      Format.fprintf ppf "partition %a"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "|")
           (fun ppf g ->
             Format.pp_print_list
               ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
               Format.pp_print_int ppf g))
        groups
  | Drop { p } -> Format.fprintf ppf "drop p=%.2f" p
  | Dup { p } -> Format.fprintf ppf "dup p=%.2f" p
  | Slow { factor } -> Format.fprintf ppf "slow x%.1f" factor

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i e ->
      if i > 0 then Format.fprintf ppf "@,";
      Format.fprintf ppf "%7.0fms +%5.0fms  %a" e.at_ms e.dur_ms pp_event e.ev)
    t.events;
  Format.fprintf ppf "@]"
