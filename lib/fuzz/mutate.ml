open Dgc_prelude
module Plan = Dgc_chaos.Plan

(* Clamps shared by every operator: windows open inside the first 95%
   of the horizon and last at least 1ms; probabilities stay in
   [0.05, 1] (a 0-probability drop window is a no-op that only wastes
   executions); latency factors in [1.5, 20]. *)
let clamp lo hi x = Float.max lo (Float.min hi x)
let clamp_at ~horizon_ms at = clamp 0. (0.95 *. horizon_ms) at
let clamp_dur ~horizon_ms dur = clamp 1. horizon_ms dur
let clamp_p p = clamp 0.05 1. p
let clamp_factor f = clamp 1.5 20. f

let sort_events evs =
  List.stable_sort
    (fun a b -> Float.compare a.Plan.at_ms b.Plan.at_ms)
    evs

let with_events evs = { Plan.events = sort_events evs }

let random_event rng ~sites =
  match Rng.int rng 5 with
  | 0 -> Plan.Crash { site = Rng.int rng sites }
  | 1 ->
      let all = List.init sites Fun.id in
      let left = List.filter (fun _ -> Rng.bool rng) all in
      let left = if left = [] then [ 0 ] else left in
      let right = List.filter (fun s -> not (List.mem s left)) all in
      Plan.Partition
        { groups = (if right = [] then [ left ] else [ left; right ]) }
  | 2 -> Plan.Drop { p = Rng.float_in rng 0.3 1.0 }
  | 3 -> Plan.Dup { p = Rng.float_in rng 0.2 0.8 }
  | _ -> Plan.Slow { factor = Rng.float_in rng 2. 10. }

let random_timed rng ~sites ~horizon_ms =
  {
    Plan.at_ms = Rng.float_in rng 0. (0.75 *. horizon_ms);
    dur_ms = Rng.float_in rng (horizon_ms /. 20.) (horizon_ms /. 4.);
    ev = random_event rng ~sites;
  }

(* pick the i-th event out; returns (event, rest-in-order) *)
let pick_nth l n =
  let rec go i acc = function
    | [] -> invalid_arg "pick_nth"
    | x :: tl ->
        if i = n then (x, List.rev_append acc tl) else go (i + 1) (x :: acc) tl
  in
  go 0 [] l

(* ---- plan operators -------------------------------------------------- *)

let perturb_event rng ~sites = function
  | Plan.Crash _ -> Plan.Crash { site = Rng.int rng sites }
  | Plan.Partition _ ->
      (* redraw the cut entirely; perturbing one membership rarely
         changes reachability *)
      let all = List.init sites Fun.id in
      let left = List.filter (fun _ -> Rng.bool rng) all in
      let left = if left = [] then [ 0 ] else left in
      let right = List.filter (fun s -> not (List.mem s left)) all in
      Plan.Partition
        { groups = (if right = [] then [ left ] else [ left; right ]) }
  | Plan.Drop { p } ->
      Plan.Drop { p = clamp_p (p +. Rng.float_in rng (-0.3) 0.3) }
  | Plan.Dup { p } ->
      Plan.Dup { p = clamp_p (p +. Rng.float_in rng (-0.3) 0.3) }
  | Plan.Slow { factor } ->
      Plan.Slow { factor = clamp_factor (factor *. Rng.float_in rng 0.5 2.) }

let mutate_plan ~rng ~sites ~horizon_ms ?mate (p : Input.plan_case) =
  let evs = p.Input.pi_plan.Plan.events in
  let n = List.length evs in
  let ops =
    if n = 0 then [ "add"; "reseed" ]
    else
      [ "shift"; "stretch"; "split"; "perturb"; "add"; "drop"; "reseed" ]
      @ (if n >= 2 then [ "merge" ] else [])
      @
      match mate with
      | Some (Input.Plan_input m) when m.Input.pi_plan.Plan.events <> [] ->
          [ "xover" ]
      | _ -> []
  in
  let op = Rng.choose rng ops in
  let plan' =
    match op with
    | "shift" ->
        let e, rest = pick_nth evs (Rng.int rng n) in
        let at_ms =
          clamp_at ~horizon_ms
            (e.Plan.at_ms +. Rng.float_in rng (-0.2) 0.2 *. horizon_ms)
        in
        with_events ({ e with Plan.at_ms } :: rest)
    | "stretch" ->
        let e, rest = pick_nth evs (Rng.int rng n) in
        let dur_ms =
          clamp_dur ~horizon_ms (e.Plan.dur_ms *. Rng.float_in rng 0.25 4.)
        in
        with_events ({ e with Plan.dur_ms } :: rest)
    | "split" ->
        (* one window becomes two halves with a gap between them — the
           shape that turns a steady fault into a flap *)
        let e, rest = pick_nth evs (Rng.int rng n) in
        let half = Float.max 1. (e.Plan.dur_ms /. 2.) in
        let gap = Rng.float_in rng 0. half in
        let a = { e with Plan.dur_ms = half } in
        let b =
          {
            e with
            Plan.at_ms = clamp_at ~horizon_ms (e.Plan.at_ms +. half +. gap);
            dur_ms = half;
          }
        in
        with_events (a :: b :: rest)
    | "merge" ->
        let i = Rng.int rng n in
        let j = (i + 1 + Rng.int rng (n - 1)) mod n in
        let a, rest = pick_nth evs (min i j) in
        let b, rest = pick_nth rest (max i j - 1) in
        let at_ms = Float.min a.Plan.at_ms b.Plan.at_ms in
        let close =
          Float.max
            (a.Plan.at_ms +. a.Plan.dur_ms)
            (b.Plan.at_ms +. b.Plan.dur_ms)
        in
        let merged =
          {
            Plan.at_ms;
            dur_ms = clamp_dur ~horizon_ms (close -. at_ms);
            ev = (if Rng.bool rng then a.Plan.ev else b.Plan.ev);
          }
        in
        with_events (merged :: rest)
    | "perturb" ->
        let e, rest = pick_nth evs (Rng.int rng n) in
        with_events
          ({ e with Plan.ev = perturb_event rng ~sites e.Plan.ev } :: rest)
    | "add" ->
        with_events (random_timed rng ~sites ~horizon_ms :: evs)
    | "drop" ->
        let _, rest = pick_nth evs (Rng.int rng n) in
        with_events rest
    | "reseed" -> p.Input.pi_plan
    | "xover" -> (
        match mate with
        | Some (Input.Plan_input m) ->
            (* keep a random prefix of ours, graft the mate's suffix *)
            let keep = Rng.int rng (n + 1) in
            let ours = List.filteri (fun i _ -> i < keep) evs in
            let theirs =
              List.filter
                (fun _ -> Rng.bool rng)
                m.Input.pi_plan.Plan.events
            in
            with_events (ours @ theirs)
        | _ -> assert false)
    | _ -> assert false
  in
  let seed =
    if String.equal op "reseed" then Rng.int_in rng 1 1_000_000
    else p.Input.pi_seed
  in
  (op, Input.Plan_input { p with Input.pi_plan = plan'; pi_seed = seed })

(* ---- schedule operators ---------------------------------------------- *)

let random_dev rng ~max_steps ~width =
  (Rng.int rng (max 1 max_steps), Rng.int_in rng 1 (max 1 width))

let mutate_sched ~rng ~max_steps ~width ?mate (s : Input.sched_case) =
  let devs = s.Input.si_schedule in
  let n = List.length devs in
  let ops =
    if n = 0 then [ "dev-add" ]
    else
      [ "dev-add"; "dev-drop"; "dev-step"; "dev-rank" ]
      @
      match mate with
      | Some (Input.Schedule_input m) when m.Input.si_schedule <> [] ->
          [ "dev-xover" ]
      | _ -> []
  in
  let op = Rng.choose rng ops in
  let devs' =
    match op with
    | "dev-add" -> random_dev rng ~max_steps ~width :: devs
    | "dev-drop" ->
        let _, rest = pick_nth devs (Rng.int rng n) in
        rest
    | "dev-step" ->
        let (step, rank), rest = pick_nth devs (Rng.int rng n) in
        let step =
          max 0 (min (max_steps - 1) (step + Rng.int_in rng (-8) 8))
        in
        (step, rank) :: rest
    | "dev-rank" ->
        let (step, _), rest = pick_nth devs (Rng.int rng n) in
        (step, Rng.int_in rng 1 (max 1 width)) :: rest
    | "dev-xover" -> (
        match mate with
        | Some (Input.Schedule_input m) ->
            List.filter (fun _ -> Rng.bool rng) devs
            @ List.filter (fun _ -> Rng.bool rng) m.Input.si_schedule
        | _ -> assert false)
    | _ -> assert false
  in
  let devs' = List.sort_uniq compare devs' in
  (op, Input.Schedule_input { s with Input.si_schedule = devs' })

let mutate ~rng ~sites ~horizon_ms ~max_steps ~width ?mate input =
  match input with
  | Input.Plan_input p -> mutate_plan ~rng ~sites ~horizon_ms ?mate p
  | Input.Schedule_input s -> mutate_sched ~rng ~max_steps ~width ?mate s

(* ---- fresh inputs ---------------------------------------------------- *)

let random_plan ~rng ~workload ~sites ~horizon_ms ~events =
  let seed = Rng.int_in rng 1 1_000_000 in
  Input.Plan_input
    {
      Input.pi_workload = workload;
      pi_seed = seed;
      pi_horizon_ms = horizon_ms;
      pi_plan = Plan.random ~rng ~sites ~horizon_ms ~events;
    }

let random_schedule ~rng ~sut ~max_steps ~width =
  let n = Rng.int_in rng 1 4 in
  let rec draw k acc =
    if k = 0 then acc else draw (k - 1) (random_dev rng ~max_steps ~width :: acc)
  in
  Input.Schedule_input
    {
      Input.si_sut = sut;
      si_max_steps = max_steps;
      si_schedule = List.sort_uniq compare (draw n []);
    }
