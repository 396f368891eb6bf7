open Dgc_prelude
open Dgc_rts
module Journal = Dgc_simcore.Journal
module Campaign = Dgc_chaos.Campaign
module Inject = Dgc_chaos.Inject
module Workloads = Dgc_chaos.Workloads
module Explorer = Dgc_analysis.Explorer
module Sut = Dgc_analysis.Sut
module Shrink = Dgc_analysis.Shrink
module Conformance = Dgc_analysis.Conformance

type opts = {
  o_name : string;
  o_seed : int;
  o_execs : int;
  o_cov_size : int;
  o_workloads : string list;
  o_suts : string list;
  o_tweaks : string list;
  o_horizon_ms : float;
  o_events : int;
  o_max_steps : int;
  o_width : int;
  o_stop_on : string list;
  o_promote_dir : string option;
  o_corpus : Input.t list;
}

let default_opts =
  {
    o_name = "fuzz";
    o_seed = 1;
    o_execs = 48;
    o_cov_size = 16384;
    o_workloads = [ "churn"; "fig2" ];
    o_suts = [];
    o_tweaks = [];
    o_horizon_ms = 20_000.;
    o_events = 3;
    o_max_steps = 400;
    o_width = 3;
    o_stop_on = [];
    o_promote_dir = None;
    o_corpus = [];
  }

(* ---- one execution --------------------------------------------------- *)

type exec_result = {
  x_bits : int list;  (** the run's coverage hit set *)
  x_failure : (string * string) option;  (** kind, detail *)
}

(* Both taps share one per-run recorder sized and seeded like the
   global map, so slot indices line up for [Coverage.absorb]. The
   protocol key crosses the automaton state (read after the monitor,
   which subscribes first, has taken the delivery) with the live fault
   mask; the journal key crosses the category with the mask and the
   last automaton state seen — the same journal line means something
   different inside a partition window than outside one. Protocol keys
   use the registered kind label (back_call, g_mark, ...) so coverage
   can tell the collectors' ext kinds apart. *)
let attach_taps ~local ~mask_of eng =
  let last_state = ref 0 in
  let conf = Conformance.create () in
  Conformance.attach conf eng;
  Engine.subscribe eng (function
    | Engine.Deliver { payload; _ } ->
        let state = Conformance.state_code conf in
        last_state := state;
        Coverage.record local
          (Printf.sprintf "p|%s|%d|%d" (Protocol.kind payload) state
             (mask_of ()))
    | Engine.Journal e ->
        Coverage.record local
          (Printf.sprintf "j|%s|%d|%d" e.Journal.cat (mask_of ()) !last_state)
    | _ -> ())

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let exec_plan opts ~local (p : Input.plan_case) =
  let case = Input.case_of_plan ~name:"fuzz" p in
  let case = { case with Campaign.cs_horizon_ms = p.Input.pi_horizon_ms } in
  let probe pb =
    attach_taps ~local
      ~mask_of:(fun () -> Inject.active_mask pb.Campaign.pb_inject)
      pb.Campaign.pb_eng
  in
  let oc =
    Campaign.run_case ~tweak:(Input.tweak_all opts.o_tweaks) ~probe case
  in
  let failure =
    Option.map
      (fun f -> (Campaign.failure_kind f, Campaign.failure_to_string f))
      oc.Campaign.oc_failure
  in
  (match failure with
  | Some (kind, _) -> Coverage.record local ("v|plan|" ^ kind)
  | None -> ());
  { x_bits = Coverage.bits local; x_failure = failure }

(* The sanitizer SUTs judge through [i_check], so the violation text is
   the sanitizer's vocabulary; the explorer turns oracle exceptions
   into "oracle: ..." lines. *)
let classify_sched_violation msgs =
  let any sub = List.exists (contains_sub ~sub) msgs in
  if any "harmful race" then "race"
  else if any "lost trace" then "leak"
  else if any "oracle:" then "safety"
  else "invariant"

let exec_sched ~local (s : Input.sched_case) =
  match Sut.find s.Input.si_sut with
  | None -> { x_bits = []; x_failure = None }
  | Some sut ->
      let probe inst =
        let eng = inst.Explorer.i_sim.Dgc_core.Sim.eng in
        (* the journal tap needs a journal to hear *)
        if Option.is_none (Engine.journal eng) then
          Engine.attach_journal eng (Journal.create ());
        attach_taps ~local ~mask_of:(fun () -> 0) eng
      in
      let run =
        Explorer.run_schedule ~probe sut ~max_steps:s.Input.si_max_steps
          s.Input.si_schedule
      in
      let failure =
        Option.map
          (fun (step, msgs) ->
            let kind = classify_sched_violation msgs in
            let detail =
              Printf.sprintf "step %d: %s" step
                (match msgs with m :: _ -> m | [] -> "?")
            in
            (kind, detail))
          run.Explorer.run_violation
      in
      (match failure with
      | Some (kind, _) -> Coverage.record local ("v|schedule|" ^ kind)
      | None -> ());
      { x_bits = Coverage.bits local; x_failure = failure }

let execute opts ~seed input =
  let local = Coverage.create ~size:opts.o_cov_size ~seed () in
  match input with
  | Input.Plan_input p -> exec_plan opts ~local p
  | Input.Schedule_input s -> exec_sched ~local s

(* ---- shrinking and promotion ----------------------------------------- *)

let shrink_input opts input (kind, _detail) =
  match input with
  | Input.Plan_input p -> (
      let case = Input.case_of_plan ~name:"fuzz-shrink" p in
      let tweak = Input.tweak_all opts.o_tweaks in
      match (Campaign.run_case ~tweak case).Campaign.oc_failure with
      | Some f ->
          let plan, _replays = Campaign.shrink_case ~tweak case f in
          Input.Plan_input { p with Input.pi_plan = plan }
      | None -> input)
  | Input.Schedule_input s ->
      let reproduces devs =
        match Sut.find s.Input.si_sut with
        | None -> false
        | Some sut -> (
            let run =
              Explorer.run_schedule sut ~max_steps:s.Input.si_max_steps devs
            in
            match run.Explorer.run_violation with
            | Some (_, msgs) ->
                String.equal (classify_sched_violation msgs) kind
            | None -> false)
      in
      let devs, _replays = Shrink.minimize ~reproduces s.Input.si_schedule in
      Input.Schedule_input { s with Input.si_schedule = devs }

let promote opts ~dir ~kind ~signature input =
  let file = Printf.sprintf "fuzz_%s_%08x.json" kind (signature land 0xffffffff) in
  let path = Filename.concat dir file in
  let meta =
    {
      Input.m_expect = Some kind;
      m_tweaks =
        (match input with
        | Input.Plan_input _ -> opts.o_tweaks
        | Input.Schedule_input _ -> []);
      m_comment =
        Some
          (Printf.sprintf
             "Auto-promoted by the coverage-guided fuzzer (seed %d): %s \
              reproducer, ddmin-shrunk; dedup key %s/%08x."
             opts.o_seed kind kind
             (signature land 0xffffffff));
    }
  in
  Dgc_telemetry.Json.write_file ~path (Input.to_json ~meta input);
  file

(* ---- the campaign loop ----------------------------------------------- *)

type target = T_workload of string | T_sut of string

let fresh_input opts rng = function
  | T_workload w ->
      Mutate.random_plan ~rng ~workload:w ~sites:(Workloads.sites w)
        ~horizon_ms:opts.o_horizon_ms ~events:opts.o_events
  | T_sut s ->
      Mutate.random_schedule ~rng ~sut:s ~max_steps:opts.o_max_steps
        ~width:opts.o_width

let sites_of_input = function
  | Input.Plan_input p -> Workloads.sites p.Input.pi_workload
  | Input.Schedule_input _ -> 1

let campaign ~guided opts =
  let rng = Rng.create ~seed:opts.o_seed in
  let global = Coverage.create ~size:opts.o_cov_size ~seed:opts.o_seed () in
  let pool = Pool.create () in
  let targets =
    List.map (fun w -> T_workload w) opts.o_workloads
    @ List.map (fun s -> T_sut s) opts.o_suts
  in
  if targets = [] then invalid_arg "Fuzzer: no workloads and no suts";
  let ops = Hashtbl.create 16 in
  let bump op ~novel ~failed =
    let t, n, f =
      match Hashtbl.find_opt ops op with Some x -> x | None -> (0, 0, 0)
    in
    Hashtbl.replace ops op
      (t + 1, (n + if novel then 1 else 0), f + if failed then 1 else 0)
  in
  let curve = ref [] in
  let found = ref [] in
  let found_kinds = ref [] in
  let promoted = ref 0 in
  let seen_sigs = ref [] in
  (* warm the pool from the seed corpus: each input costs one exec *)
  let seeds = if guided then opts.o_corpus else [] in
  let execs_done = ref 0 in
  let stop () =
    opts.o_stop_on <> []
    && List.for_all (fun k -> List.mem k !found_kinds) opts.o_stop_on
  in
  let next_input () =
    if guided && Pool.size pool > 0 && Rng.chance rng 0.5 then
      match Pool.select pool ~rng ~global with
      | Some e ->
          let mate =
            Option.map
              (fun m -> m.Pool.e_input)
              (Pool.select pool ~rng ~global)
          in
          let op, input =
            Mutate.mutate ~rng
              ~sites:(sites_of_input e.Pool.e_input)
              ~horizon_ms:opts.o_horizon_ms ~max_steps:opts.o_max_steps
              ~width:opts.o_width ?mate e.Pool.e_input
          in
          (Some op, input)
      | None -> (None, fresh_input opts rng (Rng.choose rng targets))
    else (None, fresh_input opts rng (Rng.choose rng targets))
  in
  let seed_queue = ref seeds in
  let run_one exec_ix =
    let op, input =
      match !seed_queue with
      | s :: tl ->
          seed_queue := tl;
          (None, s)
      | [] -> next_input ()
    in
    let res = execute opts ~seed:opts.o_seed input in
    let novel = Coverage.absorb global res.x_bits in
    if guided && novel > 0 then Pool.add pool input res.x_bits;
    (match op with
    | Some op -> bump op ~novel:(novel > 0) ~failed:(res.x_failure <> None)
    | None -> ());
    curve := Coverage.hits global :: !curve;
    match res.x_failure with
    | None -> ()
    | Some (kind, detail) ->
        if not (List.mem kind !found_kinds) then
          found_kinds := kind :: !found_kinds;
        let signature = Coverage.signature res.x_bits in
        let key = (kind, signature) in
        if not (List.mem key !seen_sigs) then begin
          seen_sigs := key :: !seen_sigs;
          let promoted_as =
            match opts.o_promote_dir with
            | Some dir when guided ->
                let shrunk = shrink_input opts input (kind, detail) in
                incr promoted;
                Some (promote opts ~dir ~kind ~signature shrunk)
            | _ -> None
          in
          found :=
            {
              Report.fd_kind = kind;
              fd_input = Input.kind_name input;
              fd_exec = exec_ix;
              fd_detail = detail;
              fd_signature = signature;
              fd_promoted = promoted_as;
            }
            :: !found
        end
  in
  (try
     for i = 0 to opts.o_execs - 1 do
       if stop () then raise Exit;
       run_one i;
       incr execs_done
     done
   with Exit -> ());
  {
    Report.r_name = opts.o_name;
    r_seed = opts.o_seed;
    r_mode = (if guided then "guided" else "random");
    r_execs = !execs_done;
    r_curve = List.rev !curve;
    r_map = global;
    r_pool_size = Pool.size pool;
    r_pool_plans = Pool.plans pool;
    r_pool_schedules = Pool.schedules pool;
    r_promoted = !promoted;
    r_ops =
      Hashtbl.fold
        (fun name (t, n, f) acc ->
          { Report.op_name = name; op_tried = t; op_novel = n; op_failed = f }
          :: acc)
        ops []
      |> List.sort (fun a b -> String.compare a.Report.op_name b.Report.op_name);
    r_found = List.rev !found;
    r_baseline = None;
  }

let run opts = campaign ~guided:true opts
let baseline opts = campaign ~guided:false opts

let with_baseline opts =
  let guided = run opts in
  (* Same budget means same budget: the random arm gets exactly the
     executions the guided arm spent (stop_on may have ended the
     guided loop early), and no early exit of its own. *)
  let random =
    baseline
      {
        opts with
        o_promote_dir = None;
        o_stop_on = [];
        o_execs = guided.Report.r_execs;
      }
  in
  {
    guided with
    Report.r_baseline =
      Some (random.Report.r_execs, Coverage.hits random.Report.r_map);
  }
