open Dgc_rts
module Json = Dgc_telemetry.Json
module Plan = Dgc_chaos.Plan

type plan_case = {
  pi_workload : string;
  pi_seed : int;
  pi_horizon_ms : float;
  pi_plan : Plan.t;
}

type sched_case = {
  si_sut : string;
  si_max_steps : int;
  si_schedule : Dgc_analysis.Shrink.deviation list;
}

type t = Plan_input of plan_case | Schedule_input of sched_case

type meta = {
  m_expect : string option;
  m_tweaks : string list;
  m_comment : string option;
}

let no_meta = { m_expect = None; m_tweaks = []; m_comment = None }

let kind_name = function
  | Plan_input _ -> "plan"
  | Schedule_input _ -> "schedule"

let tweak_of_name = function
  | "sanitize" -> Some (fun c -> { c with Config.sanitize = true })
  | "no_timeouts" -> Some (fun c -> { c with Config.enable_timeouts = false })
  | "broken_transfer_barrier" ->
      Some (fun c -> { c with Config.enable_transfer_barrier = false })
  | _ -> None

let tweak_all names cfg =
  List.fold_left
    (fun cfg n ->
      match tweak_of_name n with
      | Some f -> f cfg
      | None -> invalid_arg (Printf.sprintf "unknown config tweak %S" n))
    cfg names

(* ---- encoding -------------------------------------------------------- *)

(* The corpus files carry the plan codec's event array inside a richer
   envelope; reuse [Plan.to_json] and graft its "events" member so the
   two encoders cannot drift. *)
let plan_events_json plan =
  match Json.member "events" (Plan.to_json plan) with
  | Some evs -> evs
  | None -> assert false

let meta_fields meta =
  (match meta.m_comment with
  | Some c -> [ ("comment", Json.Str c) ]
  | None -> [])
  @ (match meta.m_expect with
    | Some e -> [ ("expect", Json.Str e) ]
    | None -> [])
  @
  match meta.m_tweaks with
  | [] -> []
  | ts -> [ ("tweak", Json.Arr (List.map (fun t -> Json.Str t) ts)) ]

let to_json ?(meta = no_meta) = function
  | Plan_input p ->
      Json.Obj
        ([ ("schema", Json.Str Plan.schema) ]
        @ meta_fields meta
        @ [
            ("workload", Json.Str p.pi_workload);
            ("seed", Json.Int p.pi_seed);
            ("horizon_ms", Json.Float p.pi_horizon_ms);
            ("events", plan_events_json p.pi_plan);
          ])
  | Schedule_input s ->
      Json.Obj
        ([ ("schema", Json.Str "dgc.schedule/1") ]
        @ meta_fields meta
        @ [
            ("sut", Json.Str s.si_sut);
            ("max_steps", Json.Int s.si_max_steps);
            ( "schedule",
              Json.Arr
                (List.map
                   (fun (step, rank) ->
                     Json.Arr [ Json.Int step; Json.Int rank ])
                   s.si_schedule) );
          ])

(* ---- decoding -------------------------------------------------------- *)

let ( let* ) = Result.bind

let meta_of_json doc =
  let* tweaks =
    match Json.member "tweak" doc with
    | None -> Ok []
    | Some j -> (
        match Json.to_list_opt j with
        | None -> Error "field \"tweak\": expected an array of names"
        | Some l ->
            Json.list_map
              (fun j ->
                match Json.to_str_opt j with
                | Some n when Option.is_some (tweak_of_name n) -> Ok n
                | Some n -> Error (Printf.sprintf "unknown config tweak %S" n)
                | None -> Error "field \"tweak\": expected string entries")
              l)
  in
  let* expect = Json.opt_field Json.str_field "expect" doc in
  let* comment = Json.opt_field Json.str_field "comment" doc in
  Ok { m_expect = expect; m_tweaks = tweaks; m_comment = comment }

let deviation_of_json d =
  match Json.to_list_opt d with
  | Some [ a; b ] -> (
      match (Json.to_int_opt a, Json.to_int_opt b) with
      | Some step, Some rank -> Ok (step, rank)
      | _ -> Error "schedule deviation: expected [step, rank] ints")
  | _ -> Error "schedule deviation: expected a [step, rank] pair"

let of_json doc =
  let* meta = meta_of_json doc in
  match Json.schema doc with
  | Some "dgc.schedule/1" ->
      let* schedule = Json.list_field "schedule" doc in
      let* schedule = Json.list_map deviation_of_json schedule in
      let* sut = Json.str_field "sut" doc in
      let* max_steps = Json.opt_field Json.int_field "max_steps" doc in
      Ok
        ( Schedule_input
            {
              si_sut = sut;
              si_max_steps = Option.value ~default:400 max_steps;
              si_schedule = schedule;
            },
          meta )
  | Some s when String.equal s Plan.schema ->
      let* plan = Plan.of_json doc in
      let* workload = Json.opt_field Json.str_field "workload" doc in
      let* seed = Json.opt_field Json.int_field "seed" doc in
      let* horizon_ms = Json.opt_field Json.float_field "horizon_ms" doc in
      Ok
        ( Plan_input
            {
              pi_workload = Option.value ~default:"churn" workload;
              pi_seed = Option.value ~default:1 seed;
              pi_horizon_ms = Option.value ~default:60_000. horizon_ms;
              pi_plan = plan;
            },
          meta )
  | Some s -> Error (Printf.sprintf "unknown corpus schema %S" s)
  | None -> Error "missing field \"schema\""

let case_of_plan ~name p =
  {
    Dgc_chaos.Campaign.cs_name = name;
    cs_workload = p.pi_workload;
    cs_seed = p.pi_seed;
    cs_horizon_ms = p.pi_horizon_ms;
    cs_plan = p.pi_plan;
  }
