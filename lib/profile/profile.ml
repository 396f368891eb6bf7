module Json = Dgc_telemetry.Json

let schema = "dgc.profile/1"

type node = {
  n_name : string;
  mutable n_wall : float;  (** inclusive host seconds across enter/leave *)
  n_work : (string, int ref) Hashtbl.t;
  n_children : (string, node) Hashtbl.t;
}

let new_node name =
  {
    n_name = name;
    n_wall = 0.;
    n_work = Hashtbl.create 8;
    n_children = Hashtbl.create 8;
  }

type t = {
  p_root : node;
  mutable p_stack : (node * float) list;
  p_clock : unit -> float;
}

(* The clock runs twice per scope on hot paths, so it must be the
   cheapest real-time source available: [Unix.gettimeofday] is
   vDSO-backed (~tens of ns) where [Sys.time] is a genuine syscall —
   four orders of magnitude apart on syscall-intercepting hosts. It
   also actually measures wall time, which is what the [wall_ns]
   field advertises. *)
let create ?(clock = Unix.gettimeofday) () =
  { p_root = new_node "all"; p_stack = []; p_clock = clock }

let current t = match t.p_stack with (n, _) :: _ -> n | [] -> t.p_root
let depth t = List.length t.p_stack

let enter t name =
  let cur = current t in
  let child =
    match Hashtbl.find_opt cur.n_children name with
    | Some c -> c
    | None ->
        let c = new_node name in
        Hashtbl.add cur.n_children name c;
        c
  in
  t.p_stack <- (child, t.p_clock ()) :: t.p_stack

let leave t =
  match t.p_stack with
  | [] -> invalid_arg "Profile.leave: empty scope stack"
  | (n, t0) :: rest ->
      n.n_wall <- n.n_wall +. Float.max 0. (t.p_clock () -. t0);
      t.p_stack <- rest

let with_scope t name f =
  enter t name;
  Fun.protect ~finally:(fun () -> leave t) f

let work t u n =
  if n <> 0 then begin
    let cur = current t in
    match Hashtbl.find_opt cur.n_work u with
    | Some r -> r := !r + n
    | None -> Hashtbl.add cur.n_work u (ref n)
  end

(* ---- traversal -------------------------------------------------------- *)

let children_sorted n =
  Hashtbl.fold (fun _ c acc -> c :: acc) n.n_children []
  |> List.sort (fun a b -> String.compare a.n_name b.n_name)

(* Pre-order, children in name order: deterministic regardless of the
   order scopes were first entered. [f acc path node kids]. *)
let fold_nodes f acc t =
  let rec go acc path n =
    let path = if path = "" then n.n_name else path ^ ";" ^ n.n_name in
    let kids = children_sorted n in
    let acc = f acc path n kids in
    List.fold_left (fun acc c -> go acc path c) acc kids
  in
  go acc "" t.p_root

let work_items n =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) n.n_work []
  |> List.filter (fun (_, v) -> v <> 0)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let units t =
  let seen = Hashtbl.create 16 in
  fold_nodes
    (fun () _ n _ ->
      Hashtbl.iter (fun k r -> if !r <> 0 then Hashtbl.replace seen k ()) n.n_work)
    () t;
  Hashtbl.fold (fun k () acc -> k :: acc) seen [] |> List.sort String.compare

let self_weight ?unit_ n =
  match unit_ with
  | Some u -> ( match Hashtbl.find_opt n.n_work u with Some r -> !r | None -> 0)
  | None -> Hashtbl.fold (fun _ r acc -> acc + !r) n.n_work 0

let self_wall n kids =
  Float.max 0. (n.n_wall -. List.fold_left (fun a c -> a +. c.n_wall) 0. kids)

(* ---- exports ---------------------------------------------------------- *)

(* flamegraph.pl-compatible folded stacks: "all;deliver;move 42" lines,
   weight = the node's own (self) work in [unit_], or the sum over all
   work units when no unit is named. *)
let to_folded ?unit_ t =
  let lines =
    fold_nodes
      (fun acc path n _ ->
        let w = self_weight ?unit_ n in
        if w > 0 then Printf.sprintf "%s %d" path w :: acc else acc)
      [] t
  in
  String.concat "\n" (List.rev lines) ^ "\n"

(* speedscope "sampled" profile: one sample per node with self weight,
   the sample's stack being the node's path. *)
let to_speedscope ?unit_ ?(name = "dgc-profile") t =
  let frame_ix = Hashtbl.create 32 in
  let frames = ref [] in
  let n_frames = ref 0 in
  let frame fname =
    match Hashtbl.find_opt frame_ix fname with
    | Some i -> i
    | None ->
        let i = !n_frames in
        Hashtbl.replace frame_ix fname i;
        frames := fname :: !frames;
        incr n_frames;
        i
  in
  let samples, weights, total =
    let rec go (samples, weights, total) stack n =
      let stack = stack @ [ frame n.n_name ] in
      let w = self_weight ?unit_ n in
      let acc =
        if w > 0 then
          ( Json.Arr (List.map (fun i -> Json.Int i) stack) :: samples,
            Json.Int w :: weights,
            total + w )
        else (samples, weights, total)
      in
      List.fold_left (fun acc c -> go acc stack c) acc (children_sorted n)
    in
    go ([], [], 0) [] t.p_root
  in
  Json.Obj
    [
      ( "$schema",
        Json.Str "https://www.speedscope.app/file-format-schema.json" );
      ( "shared",
        Json.Obj
          [
            ( "frames",
              Json.Arr
                (List.rev_map
                   (fun fname -> Json.Obj [ ("name", Json.Str fname) ])
                   !frames) );
          ] );
      ( "profiles",
        Json.Arr
          [
            Json.Obj
              [
                ("type", Json.Str "sampled");
                ("name", Json.Str name);
                ("unit", Json.Str "none");
                ("startValue", Json.Int 0);
                ("endValue", Json.Int total);
                ("samples", Json.Arr (List.rev samples));
                ("weights", Json.Arr (List.rev weights));
              ];
          ] );
      ("name", Json.Str name);
      ("activeProfileIndex", Json.Int 0);
      ("exporter", Json.Str "dgc-sim profile");
    ]

(* The dgc.profile/1 artifact. Work-unit fields are deterministic
   (same seed => byte-identical); wall_ns is host time and excluded
   when [wall:false] — which is also how bit-reproducible artifacts
   (chaos campaigns, bench baselines) embed their profile sections.
   The ledger rows come from the collector; runs without back traces
   (baselines) pass none and print an empty section. *)
let to_json ?(wall = true) ?(name = "profile") ?(ledger = []) t =
  let nodes =
    fold_nodes
      (fun acc path n kids ->
        let fields =
          [
            ("path", Json.Str path);
            ( "work",
              Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (work_items n))
            );
          ]
          @
          if wall then
            [
              ( "wall_ns",
                Json.Int
                  (int_of_float (Float.max 0. (self_wall n kids *. 1e9))) );
            ]
          else []
        in
        Json.Obj fields :: acc)
      [] t
  in
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("name", Json.Str name);
      ("units", Json.Arr (List.map (fun u -> Json.Str u) (units t)));
      ("nodes", Json.Arr (List.rev nodes));
      ("ledger", Ledger.to_json ledger);
    ]

(* ---- validation ------------------------------------------------------- *)

let ( let* ) = Result.bind

let node_path j =
  let* p = Json.str_field "path" j in
  if p = "" then Error "node path is empty" else Ok p

let validate_node units j =
  let* path = node_path j in
  Result.map_error (fun e -> path ^ ": " ^ e)
    (let* work = Json.obj_field "work" j in
     let rec go last = function
       | [] -> Ok ()
       | (k, Json.Int v) :: tl ->
           if v < 0 then Error ("negative work " ^ k)
           else if not (List.mem k units) then
             Error ("work unit " ^ k ^ " not declared in units")
           else if last >= k then Error ("work keys not sorted at " ^ k)
           else go k tl
       | (k, _) :: _ -> Error ("work " ^ k ^ " is not an int")
     in
     let* () = go "" work in
     match Json.member "wall_ns" j with
     | None -> Ok path (* wall-free export *)
     | Some w -> (
         match Json.to_int_opt w with
         | Some n when n >= 0 -> Ok path
         | _ -> Error "wall_ns is not a non-negative int"))

let parent_path p =
  match String.rindex_opt p ';' with
  | Some i -> Some (String.sub p 0 i)
  | None -> None

let validate j =
  let* () = Json.expect_schema schema j in
  let* _ = Json.str_field "name" j in
  let* units = Json.list_field "units" j in
  let* units =
    Json.list_map
      (fun u ->
        Option.to_result ~none:"units must be strings" (Json.to_str_opt u))
      units
  in
  let* () =
    let rec sorted = function
      | a :: (b :: _ as tl) ->
          if a >= b then Error "units not sorted" else sorted tl
      | _ -> Ok ()
    in
    sorted units
  in
  let* nodes = Json.list_field "nodes" j in
  let* paths = Json.list_map (validate_node units) nodes in
  let* () =
    match paths with
    | [] -> Error "no nodes"
    | root :: _ when String.contains root ';' ->
        Error "first node is not the root"
    | _ -> Ok ()
  in
  (* Pre-order with name-sorted children implies: every parent appears
     before its children, and sibling subtrees appear in name order.
     Checking "parent already seen" catches both truncation and
     non-deterministic emission orders. *)
  let seen = Hashtbl.create 64 in
  let* _ =
    Json.list_map
      (fun p ->
        let* () =
          match parent_path p with
          | None -> Ok ()
          | Some parent ->
              if Hashtbl.mem seen parent then Ok ()
              else Error ("node " ^ p ^ " appears before its parent")
        in
        if Hashtbl.mem seen p then Error ("duplicate node path " ^ p)
        else Ok (Hashtbl.replace seen p ()))
      paths
  in
  match Json.member "ledger" j with
  | Some l -> Ledger.validate l
  | None -> Ok ()

let validate_run j =
  let* () = Dgc_telemetry.Run_artifact.validate j in
  match Dgc_telemetry.Run_artifact.profile_section j with
  | None -> Ok ()
  | Some p -> Result.map_error (( ^ ) "profile section: ") (validate p)

(* ---- diff ------------------------------------------------------------- *)

type delta = {
  d_path : string;
  d_unit : string;
  d_base : int;
  d_fresh : int;
}

type diff_report = {
  df_deltas : delta list;  (** every path×unit whose count changed *)
  df_shares : (string * string * float * float) list;
      (** (top-level phase, unit, base share, fresh share) *)
  df_max_share_drift : float;
  df_share_tolerance : float;
  df_regressed : bool;
}

let nodes_of_json j =
  let* nodes = Json.list_field "nodes" j in
  Json.list_map
    (fun n ->
      let* p = node_path n in
      let work =
        Option.value ~default:[] (Json.opt_field "work" Json.to_obj_opt n)
        |> List.filter_map (fun (k, v) ->
               Option.map (fun i -> (k, i)) (Json.to_int_opt v))
      in
      Ok (p, work))
    nodes

(* Top-level phase of a path: the segment right under the root —
   "all;deliver;move" -> "deliver"; root self-work stays under "all". *)
let top_phase p =
  match String.index_opt p ';' with
  | None -> p
  | Some i -> (
      let rest = String.sub p (i + 1) (String.length p - i - 1) in
      match String.index_opt rest ';' with
      | None -> rest
      | Some k -> String.sub rest 0 k)

let diff ?(share_tolerance = 0.10) base fresh =
  let* bn = nodes_of_json base in
  let* fn = nodes_of_json fresh in
  let lookup nodes p u =
    match List.assoc_opt p nodes with
    | Some work -> ( match List.assoc_opt u work with Some v -> v | None -> 0)
    | None -> 0
  in
  let keys =
    List.concat_map (fun (p, work) -> List.map (fun (u, _) -> (p, u)) work)
      (bn @ fn)
    |> List.sort_uniq compare
  in
  let deltas =
    List.filter_map
      (fun (p, u) ->
        let b = lookup bn p u and f = lookup fn p u in
        if b <> f then Some { d_path = p; d_unit = u; d_base = b; d_fresh = f }
        else None)
      keys
  in
  (* Per-unit totals and per-phase totals over *all* nodes. *)
  let totals nodes =
    let phase_tbl = Hashtbl.create 16 and unit_tbl = Hashtbl.create 16 in
    List.iter
      (fun (p, work) ->
        let phase = top_phase p in
        List.iter
          (fun (u, v) ->
            let bump tbl k =
              match Hashtbl.find_opt tbl k with
              | Some r -> r := !r + v
              | None -> Hashtbl.add tbl k (ref v)
            in
            bump phase_tbl (phase, u);
            bump unit_tbl u)
          work)
      nodes;
    (phase_tbl, unit_tbl)
  in
  let b_phase, b_unit = totals bn in
  let f_phase, f_unit = totals fn in
  let share tbl_phase tbl_unit phase u =
    let num =
      match Hashtbl.find_opt tbl_phase (phase, u) with
      | Some r -> float_of_int !r
      | None -> 0.
    in
    let den =
      match Hashtbl.find_opt tbl_unit u with
      | Some r -> float_of_int !r
      | None -> 0.
    in
    if den <= 0. then 0. else num /. den
  in
  let phase_units =
    let acc = Hashtbl.create 16 in
    Hashtbl.iter (fun k _ -> Hashtbl.replace acc k ()) b_phase;
    Hashtbl.iter (fun k _ -> Hashtbl.replace acc k ()) f_phase;
    Hashtbl.fold (fun k () l -> k :: l) acc [] |> List.sort compare
  in
  let shares =
    List.map
      (fun (phase, u) ->
        ( phase,
          u,
          share b_phase b_unit phase u,
          share f_phase f_unit phase u ))
      phase_units
  in
  let drift =
    List.fold_left
      (fun m (_, _, b, f) -> Float.max m (Float.abs (f -. b)))
      0. shares
  in
  Ok
    {
      df_deltas = deltas;
      df_shares = shares;
      df_max_share_drift = drift;
      df_share_tolerance = share_tolerance;
      df_regressed = drift > share_tolerance;
    }

let pp_diff ppf r =
  Format.fprintf ppf "@[<v>%d work-unit deltas" (List.length r.df_deltas);
  List.iter
    (fun d ->
      Format.fprintf ppf "@,  %-48s %-16s %10d -> %-10d (%+d)" d.d_path d.d_unit
        d.d_base d.d_fresh (d.d_fresh - d.d_base))
    r.df_deltas;
  Format.fprintf ppf "@,top-level phase shares (base -> fresh):";
  List.iter
    (fun (phase, u, b, f) ->
      Format.fprintf ppf "@,  %-20s %-16s %6.2f%% -> %6.2f%% (drift %.2f%%)"
        phase u (100. *. b) (100. *. f)
        (100. *. Float.abs (f -. b)))
    r.df_shares;
  Format.fprintf ppf "@,max share drift %.2f%% vs tolerance %.2f%%: %s@]"
    (100. *. r.df_max_share_drift)
    (100. *. r.df_share_tolerance)
    (if r.df_regressed then "REGRESSION" else "ok")
