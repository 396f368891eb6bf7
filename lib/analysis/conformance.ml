open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts
open Dgc_core
open Dgc_workload

type violation = { c_rule : string; c_message : string }

let violation_to_string v = v.c_rule ^ ": " ^ v.c_message

type move_state = {
  mv_src : Site_id.t;
  mv_dst : Site_id.t;
  mutable mv_acked : bool;
}

type t = {
  moves : (int, move_state) Hashtbl.t;
  (* (transferred ref, inserting site) -> outstanding insert count *)
  pending_inserts : (Oid.t * Site_id.t, int) Hashtbl.t;
  deliveries : (string, int) Hashtbl.t;
  senders : (string, Site_id.Set.t ref) Hashtbl.t;
  receivers : (string, Site_id.Set.t ref) Hashtbl.t;
  mutable violations : violation list;
  mutable total : int;
  (* incremental mirrors of the automata, kept so [state_code] is O(1)
     per delivery (the coverage-guided fuzzer reads it on every one) *)
  mutable unacked_moves : int;
  mutable open_inserts : int;
}

let create () =
  {
    moves = Hashtbl.create 16;
    pending_inserts = Hashtbl.create 16;
    deliveries = Hashtbl.create 8;
    senders = Hashtbl.create 8;
    receivers = Hashtbl.create 8;
    violations = [];
    total = 0;
    unacked_moves = 0;
    open_inserts = 0;
  }

(* A compact fingerprint of the ordering automata: how many moves are
   inside their insert-barrier window, how many inserts await their
   ack, and whether any rule has fired — bucketed so the code space
   stays tiny (32 states) and a fuzzer's coverage map cannot be blown
   apart by raw counters. *)
let bucket n = if n <= 0 then 0 else if n = 1 then 1 else if n < 4 then 2 else 3

let state_code t =
  (bucket t.unacked_moves * 8)
  + (bucket t.open_inserts * 2)
  + if t.violations = [] then 0 else 1

let note t ~rule fmt =
  Format.kasprintf
    (fun s -> t.violations <- { c_rule = rule; c_message = s } :: t.violations)
    fmt

let bump tbl key n =
  Hashtbl.replace tbl key (n + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let add_site tbl kind site =
  match Hashtbl.find_opt tbl kind with
  | Some s -> s := Site_id.Set.add site !s
  | None -> Hashtbl.add tbl kind (ref (Site_id.Set.singleton site))

(* The per-role ordering automata, driven by delivery events. The
   handlers record is the same generated dispatch table the engine's
   receiver uses, so a payload constructor without a conformance rule
   is a compile error, not a silent gap. *)
let rules : (t * Site_id.t) Protocol.handlers =
  {
    Protocol.h_move =
      (fun (t, dst) ~src ~agent:_ ~refs:_ ~token ->
        (match Hashtbl.find_opt t.moves token with
        | Some m ->
            note t ~rule:"move-token-fresh" "move token %d reused" token;
            if m.mv_acked then t.unacked_moves <- t.unacked_moves + 1
        | None -> t.unacked_moves <- t.unacked_moves + 1);
        Hashtbl.replace t.moves token
          { mv_src = src; mv_dst = dst; mv_acked = false });
    h_move_ack =
      (fun (t, dst) ~src ~token ->
        match Hashtbl.find_opt t.moves token with
        | None ->
            note t ~rule:"ack-after-move"
              "move_ack for unknown token %d delivered at %a" token Site_id.pp
              dst
        | Some m ->
            if m.mv_acked then
              note t ~rule:"ack-once" "move token %d acknowledged twice" token;
            if
              not (Site_id.equal dst m.mv_src && Site_id.equal src m.mv_dst)
            then
              note t ~rule:"ack-routing"
                "move_ack for token %d travelled %a->%a but the move went \
                 %a->%a"
                token Site_id.pp src Site_id.pp dst Site_id.pp m.mv_src
                Site_id.pp m.mv_dst;
            if not m.mv_acked then t.unacked_moves <- t.unacked_moves - 1;
            m.mv_acked <- true);
    h_insert =
      (fun (t, dst) ~src ~r ~by ~inc:_ ->
        if not (Site_id.equal dst (Oid.site r)) then
          note t ~rule:"insert-at-owner"
            "insert for %a delivered at %a, not its owner" Oid.pp r Site_id.pp
            dst;
        if not (Site_id.equal src by) then
          note t ~rule:"insert-by-holder"
            "insert for %a names holder %a but was sent by %a" Oid.pp r
            Site_id.pp by Site_id.pp src;
        t.open_inserts <- t.open_inserts + 1;
        bump t.pending_inserts (r, by) 1);
    h_insert_done =
      (fun (t, dst) ~src ~r ->
        if not (Site_id.equal src (Oid.site r)) then
          note t ~rule:"insert-done-from-owner"
            "insert_done for %a sent by %a, not its owner" Oid.pp r Site_id.pp
            src;
        match Hashtbl.find_opt t.pending_inserts (r, dst) with
        | Some n when n > 0 ->
            t.open_inserts <- t.open_inserts - 1;
            Hashtbl.replace t.pending_inserts (r, dst) (n - 1)
        | Some _ | None ->
            note t ~rule:"insert-pairing"
              "insert_done for %a at %a without an outstanding insert" Oid.pp r
              Site_id.pp dst);
    h_update =
      (fun (t, dst) ~src ~removals ~dists ->
        List.iter
          (fun (r, _) ->
            if not (Site_id.equal dst (Oid.site r)) then
              note t ~rule:"update-at-owner"
                "update removal for %a (from %a) delivered at non-owner %a"
                Oid.pp r Site_id.pp src Site_id.pp dst)
          removals;
        List.iter
          (fun (r, _) ->
            if not (Site_id.equal dst (Oid.site r)) then
              note t ~rule:"update-at-owner"
                "update distance for %a (from %a) delivered at non-owner %a"
                Oid.pp r Site_id.pp src Site_id.pp dst)
          dists);
    h_ext = (fun (_, _) ~src:_ _ -> (* collector-specific, opaque here *) ());
  }

(* count under the constructor's label, not the registered ext label,
   so coverage is judged against [Protocol.base_kinds] *)
let base_kind payload =
  if Protocol.is_ext payload then "ext" else Protocol.kind payload

let hook t = function
  | Engine.Send { src; payload; _ } ->
      add_site t.senders (base_kind payload) src
  | Engine.Deliver { src; dst; payload; _ } ->
      let base = base_kind payload in
      t.total <- t.total + 1;
      bump t.deliveries base 1;
      add_site t.receivers base dst;
      if (not (Protocol.is_ext payload)) && Site_id.equal src dst then
        note t ~rule:"no-self-send" "%s delivered from %a to itself" base
          Site_id.pp src;
      Protocol.dispatch rules (t, dst) ~src payload
  | _ -> ()

let attach t eng = Engine.subscribe eng (hook t)

let finish t =
  Hashtbl.iter
    (fun token m ->
      if not m.mv_acked then
        note t ~rule:"move-completes"
          "move token %d (%a->%a) was never acknowledged" token Site_id.pp
          m.mv_src Site_id.pp m.mv_dst)
    t.moves;
  (* In (ref, site) order, not bucket order: the table hashes its keys
     polymorphically, so bucket order would follow [Oid.t]'s
     representation. *)
  Hashtbl.fold (fun k n acc -> if n > 0 then (k, n) :: acc else acc)
    t.pending_inserts []
  |> List.sort compare
  |> List.iter (fun ((r, by), n) ->
         note t ~rule:"insert-completes"
           "%d insert(s) of %a by %a never acknowledged" n Oid.pp r Site_id.pp
           by);
  List.rev t.violations

let deliveries t =
  List.map
    (fun k -> (k, Option.value ~default:0 (Hashtbl.find_opt t.deliveries k)))
    Protocol.base_kinds

(* --- the battery ------------------------------------------------------- *)

type report = {
  r_violations : violation list;
  r_deliveries : (string * int) list;
  r_uncovered : string list;
  r_total : int;
}

let clean r = r.r_violations = [] && r.r_uncovered = []

let pp_report ppf r =
  Format.fprintf ppf "@[<v>%d deliveries checked@," r.r_total;
  List.iter
    (fun (k, n) -> Format.fprintf ppf "  %-12s %d@," k n)
    r.r_deliveries;
  (match r.r_uncovered with
  | [] -> Format.fprintf ppf "coverage: every payload kind delivered@,"
  | ks ->
      Format.fprintf ppf "UNCOVERED kinds: %a@,"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           Format.pp_print_string)
        ks);
  match r.r_violations with
  | [] -> Format.fprintf ppf "ordering: conformant@]"
  | vs ->
      Format.fprintf ppf "%d ordering violations:@," (List.length vs);
      List.iter
        (fun v -> Format.fprintf ppf "  %s@," (violation_to_string v))
        vs;
      Format.fprintf ppf "@]"

let battery_cfg seed =
  {
    Config.default with
    Config.n_sites = 3;
    seed;
    delta = 3;
    threshold2 = 5;
    trace_interval = Sim_time.of_seconds 5.;
    trace_jitter = Sim_time.zero;
    trace_duration = Sim_time.zero;
  }

(* Scenario 1: Figure 1 under the periodic schedule — updates from the
   converging distances, back-trace [Ext] traffic, the cycle sweep. *)
let scenario_fig1_gc mon seed =
  let f = Scenario.fig1 ~cfg:(battery_cfg seed) () in
  let sim = f.Scenario.f1_sim in
  attach mon sim.Sim.eng;
  Sim.start sim;
  ignore (Sim.collect_all sim ~max_rounds:25 () : bool);
  Sim.run_for sim (Sim_time.of_seconds 10.)

(* Scenario 2: a mutator walks Figure 1's a->b->c chain while holding
   on to [a], so every hop transfers a reference that is remote at the
   destination — the full move/insert/insert_done/move_ack exchange. *)
let scenario_walk mon seed =
  let f = Scenario.fig1 ~cfg:(battery_cfg seed) () in
  let sim = f.Scenario.f1_sim in
  attach mon sim.Sim.eng;
  Scenario.settle sim ~rounds:2;
  let agent = Mutator.spawn sim.Sim.muts ~at:f.Scenario.f1_p in
  Scenario.walk sim agent ~start_root:f.Scenario.f1_a
    ~path:[ f.Scenario.f1_b; f.Scenario.f1_c ]
    ~captures:[ (f.Scenario.f1_a, "a0") ]
    ~k:(fun () -> ())
    ();
  Sim.run_for sim (Sim_time.of_seconds 5.)

let run_battery ?(seed = 42) () =
  let mon = create () in
  scenario_fig1_gc mon seed;
  scenario_walk mon (seed + 1);
  let violations = finish mon in
  let delivered = deliveries mon in
  {
    r_violations = violations;
    r_deliveries = delivered;
    r_uncovered = List.filter_map (fun (k, n) -> if n = 0 then Some k else None) delivered;
    r_total = mon.total;
  }
