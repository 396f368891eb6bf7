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
