(* Runtime substrate (§2): ioref records, tables, the insert/update
   protocols, mutator agents with variables-as-roots, retention pins,
   crash parking, and the plain local GC. *)

open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts
module Local_gc = Dgc_baselines.Local_gc

let s k = Site_id.of_int k

let cfg n =
  {
    Config.default with
    Config.n_sites = n;
    latency = Latency.Fixed (Sim_time.of_millis 10.);
    trace_duration = Sim_time.zero;
  }

let run eng secs = Engine.run_for eng (Sim_time.of_seconds secs)

(* --- ioref records ------------------------------------------------------- *)

let test_inref_sources () =
  let t = Tables.create (s 0) in
  let target = Oid.make ~site:(s 0) ~index:0 in
  let ir = Tables.ensure_inref t target in
  Alcotest.(check int) "no sources: infinite" Ioref.infinity_dist
    (Ioref.inref_dist ir);
  Tables.add_source t ir (s 1) ~dist:4 ~inc:0;
  Tables.add_source t ir (s 2) ~dist:2 ~inc:0;
  Alcotest.(check int) "min over sources" 2 (Ioref.inref_dist ir);
  (* add_source keeps the minimum for an existing source *)
  Tables.add_source t ir (s 1) ~dist:9 ~inc:0;
  Alcotest.(check bool) "merge keeps min" true
    (match Ioref.find_source ir (s 1) with
    | Some src -> src.Ioref.src_dist = 4
    | None -> false);
  (* set overwrites *)
  Tables.set_source_dist t ir (s 1) ~dist:9;
  Alcotest.(check bool) "set overwrites" true
    (match Ioref.find_source ir (s 1) with
    | Some src -> src.Ioref.src_dist = 9
    | None -> false);
  Tables.set_source_dist t ir (s 5) ~dist:1;
  Alcotest.(check bool) "set ignores unknown" true
    (Ioref.find_source ir (s 5) = None);
  Tables.remove_source t ir (s 2);
  Alcotest.(check (list int)) "remove" [ 1 ]
    (List.map Site_id.to_int (Ioref.source_sites ir))

let test_clean_predicates () =
  let t = Tables.create (s 0) in
  let target = Oid.make ~site:(s 0) ~index:0 in
  let ir = Tables.ensure_inref t target in
  Tables.add_source t ir (s 1) ~dist:10 ~inc:0;
  Alcotest.(check bool) "fresh is clean" true (Ioref.inref_clean ~delta:3 ir);
  ir.Ioref.ir_fresh <- false;
  Alcotest.(check bool) "not suspected yet: clean" true
    (Ioref.inref_clean ~delta:3 ir);
  ir.Ioref.ir_suspected <- true;
  Alcotest.(check bool) "suspected + far: not clean" false
    (Ioref.inref_clean ~delta:3 ir);
  ir.Ioref.ir_forced_clean <- true;
  Alcotest.(check bool) "forced clean wins" true (Ioref.inref_clean ~delta:3 ir);
  ir.Ioref.ir_forced_clean <- false;
  Tables.set_source_dist t ir (s 1) ~dist:2;
  Alcotest.(check bool) "distance back under delta: clean" true
    (Ioref.inref_clean ~delta:3 ir);
  let o = Ioref.make_outref (Oid.make ~site:(s 1) ~index:0) in
  o.Ioref.or_fresh <- false;
  o.Ioref.or_suspected <- true;
  Alcotest.(check bool) "suspected outref not clean" false
    (Ioref.outref_clean o);
  o.Ioref.or_pins <- 1;
  Alcotest.(check bool) "pinned outref clean" true (Ioref.outref_clean o)

let test_tables () =
  let t = Tables.create (s 0) in
  let local = Oid.make ~site:(s 0) ~index:1 in
  let remote = Oid.make ~site:(s 1) ~index:1 in
  let ir = Tables.ensure_inref t local in
  Alcotest.(check bool) "idempotent" true (Tables.ensure_inref t local == ir);
  Alcotest.check_raises "inref must be local"
    (Invalid_argument "Tables.ensure_inref: reference not local to this site")
    (fun () -> ignore (Tables.ensure_inref t remote));
  let _, created = Tables.ensure_outref t remote in
  Alcotest.(check bool) "outref created" true created;
  let _, created2 = Tables.ensure_outref t remote in
  Alcotest.(check bool) "outref reused" false created2;
  Alcotest.check_raises "outref must be remote"
    (Invalid_argument "Tables.ensure_outref: reference is local to this site")
    (fun () -> ignore (Tables.ensure_outref t local));
  Alcotest.(check int) "counts" 1 (Tables.inref_count t);
  Tables.remove_inref t local;
  Alcotest.(check bool) "removed" true (Tables.find_inref t local = None)

(* A pure model of one site's tables, driven by random operations in
   step with a real [Tables.t]. After every step the ordered views and
   [find_*] agree with the model, [version] has moved if the sampled
   inref (target, distance, flagged) list or the outref target list
   changed, and the running [approx_bytes] equals a walk of every
   record. Eight targets per table make remove-then-re-ensure of one
   target frequent. Reading a view merges every change since the last
   read, so half the cases read the views after every step and half
   only at [T_view] steps and at the end, letting inserts and removals
   of one target pile up between reads as they do between traces. *)
type t_op =
  | T_ens_in of int
  | T_rem_in of int
  | T_ens_out of int
  | T_rem_out of int
  | T_add_src of int * int * int
  | T_set_dist of int * int * int
  | T_rem_src of int * int
  | T_flag of int
  | T_visit_in of int * int * bool
  | T_visit_out of int * int * bool
  | T_outset of int * int
  | T_inset of int * int
  | T_view

let print_t_op = function
  | T_ens_in i -> Printf.sprintf "ens_in %d" i
  | T_rem_in i -> Printf.sprintf "rem_in %d" i
  | T_ens_out i -> Printf.sprintf "ens_out %d" i
  | T_rem_out i -> Printf.sprintf "rem_out %d" i
  | T_add_src (i, src, d) -> Printf.sprintf "add_src %d S%d %d" i src d
  | T_set_dist (i, src, d) -> Printf.sprintf "set_dist %d S%d %d" i src d
  | T_rem_src (i, src) -> Printf.sprintf "rem_src %d S%d" i src
  | T_flag i -> Printf.sprintf "flag %d" i
  | T_visit_in (i, tr, add) -> Printf.sprintf "visit_in %d T%d %b" i tr add
  | T_visit_out (i, tr, add) -> Printf.sprintf "visit_out %d T%d %b" i tr add
  | T_outset (i, n) -> Printf.sprintf "outset %d %d" i n
  | T_inset (i, n) -> Printf.sprintf "inset %d %d" i n
  | T_view -> "view"

let t_op_gen =
  let open QCheck2.Gen in
  let i = int_bound 7 and src = int_range 1 3 and d = int_bound 9 in
  frequency
    [
      (4, map (fun i -> T_ens_in i) i);
      (3, map (fun i -> T_rem_in i) i);
      (4, map (fun i -> T_ens_out i) i);
      (3, map (fun i -> T_rem_out i) i);
      (3, map3 (fun i s d -> T_add_src (i, s, d)) i src d);
      (2, map3 (fun i s d -> T_set_dist (i, s, d)) i src d);
      (2, map2 (fun i s -> T_rem_src (i, s)) i src);
      (1, map (fun i -> T_flag i) i);
      (2, map3 (fun i tr b -> T_visit_in (i, tr, b)) i (int_bound 3) bool);
      (2, map3 (fun i tr b -> T_visit_out (i, tr, b)) i (int_bound 3) bool);
      (1, map2 (fun i n -> T_outset (i, n)) i (int_bound 3));
      (1, map2 (fun i n -> T_inset (i, n)) i (int_bound 3));
      (2, return T_view);
    ]

(* Model inref: sources (site, dist), newest first, and the flag. *)
type m_in = { mutable m_srcs : (int * int) list; mutable m_flag : bool }

let prop_tables_match_model =
  QCheck2.Test.make ~name:"tables match a fold-and-sort model" ~count:300
    ~print:QCheck2.Print.(pair bool (list print_t_op))
    QCheck2.Gen.(pair bool (list_size (int_bound 80) t_op_gen))
    (fun (eager, ops) ->
      let t = Tables.create (s 0) in
      let loc i = Oid.make ~site:(s 0) ~index:i
      and rem i = Oid.make ~site:(s 1) ~index:i in
      let m_ins : (int, m_in) Hashtbl.t = Hashtbl.create 8 in
      let m_outs : (int, unit) Hashtbl.t = Hashtbl.create 8 in
      let sorted_keys h = List.sort compare (Hashtbl.fold (fun k _ a -> k :: a) h []) in
      let sample () =
        ( List.map
            (fun i ->
              let m = Hashtbl.find m_ins i in
              (i, List.fold_left (fun a (_, d) -> min a d) Ioref.infinity_dist m.m_srcs,
               m.m_flag))
            (sorted_keys m_ins),
          sorted_keys m_outs )
      in
      let walk () =
        let n = ref 0 in
        Tables.iter_inrefs t (fun ir ->
            n :=
              !n + 11
              + (4 * List.length ir.Ioref.ir_sources)
              + (4 * Trace_id.Set.cardinal ir.Ioref.ir_visited)
              + (3 * List.length ir.Ioref.ir_outset));
        Tables.iter_outrefs t (fun o ->
            n :=
              !n + 11
              + (4 * Trace_id.Set.cardinal o.Ioref.or_visited)
              + (3 * List.length o.Ioref.or_inset));
        8 * !n
      in
      let trace k = Trace_id.make ~initiator:(s 1) ~seq:k in
      let check what b = if not b then failwith what in
      let check_views (ins, outs) =
        let targets l = List.map Oid.index l in
        check "inrefs sorted"
          (targets (List.map (fun ir -> ir.Ioref.ir_target) (Tables.inrefs t))
          = List.map (fun (i, _, _) -> i) ins);
        check "inref_array sorted"
          (Array.to_list
             (Array.map (fun ir -> Oid.index ir.Ioref.ir_target)
                (Tables.inref_array t))
          = List.map (fun (i, _, _) -> i) ins);
        check "inref samples"
          (List.map
             (fun ir ->
               ( Oid.index ir.Ioref.ir_target,
                 Ioref.inref_dist ir,
                 ir.Ioref.ir_flagged ))
             (Tables.inrefs t)
          = ins);
        check "outrefs sorted"
          (targets (List.map (fun o -> o.Ioref.or_target) (Tables.outrefs t))
          = outs);
        check "outref_array sorted"
          (Array.to_list
             (Array.map (fun o -> Oid.index o.Ioref.or_target)
                (Tables.outref_array t))
          = outs)
      in
      List.iter
        (fun op ->
          let before = sample () and v0 = Tables.version t in
          let with_in i f = Option.iter f (Tables.find_inref t (loc i)) in
          let with_out i f = Option.iter f (Tables.find_outref t (rem i)) in
          (match op with
          | T_ens_in i ->
              ignore (Tables.ensure_inref t (loc i));
              if not (Hashtbl.mem m_ins i) then
                Hashtbl.replace m_ins i { m_srcs = []; m_flag = false }
          | T_rem_in i ->
              Tables.remove_inref t (loc i);
              Hashtbl.remove m_ins i
          | T_ens_out i ->
              ignore (Tables.ensure_outref t (rem i));
              Hashtbl.replace m_outs i ()
          | T_rem_out i ->
              Tables.remove_outref t (rem i);
              Hashtbl.remove m_outs i
          | T_add_src (i, src, d) ->
              with_in i (fun ir ->
                  Tables.add_source t ir (s src) ~dist:d ~inc:0;
                  let m = Hashtbl.find m_ins i in
                  m.m_srcs <-
                    (match List.assoc_opt src m.m_srcs with
                    | Some d0 -> (src, min d0 d) :: List.remove_assoc src m.m_srcs
                    | None -> (src, d) :: m.m_srcs))
          | T_set_dist (i, src, d) ->
              with_in i (fun ir ->
                  Tables.set_source_dist t ir (s src) ~dist:d;
                  let m = Hashtbl.find m_ins i in
                  if List.mem_assoc src m.m_srcs then
                    m.m_srcs <- (src, d) :: List.remove_assoc src m.m_srcs)
          | T_rem_src (i, src) ->
              with_in i (fun ir ->
                  Tables.remove_source t ir (s src);
                  let m = Hashtbl.find m_ins i in
                  m.m_srcs <- List.remove_assoc src m.m_srcs)
          | T_flag i ->
              with_in i (fun ir ->
                  Tables.flag_inref t ir;
                  (Hashtbl.find m_ins i).m_flag <- true)
          | T_visit_in (i, k, add) ->
              with_in i (fun ir ->
                  (if add then Tables.visit_inref else Tables.unvisit_inref)
                    t ir (trace k))
          | T_visit_out (i, k, add) ->
              with_out i (fun o ->
                  (if add then Tables.visit_outref else Tables.unvisit_outref)
                    t o (trace k))
          | T_outset (i, n) ->
              with_in i (fun ir -> Tables.set_inref_outset t ir (List.init n rem))
          | T_inset (i, n) ->
              with_out i (fun o -> Tables.set_outref_inset t o (List.init n loc))
          | T_view -> ());
          let ((ins, outs) as after) = sample () in
          if after <> before then check "version moves" (Tables.version t <> v0);
          if eager || op = T_view then check_views after;
          for i = 0 to 7 do
            check "find_inref"
              (match Tables.find_inref t (loc i) with
              | Some ir -> Hashtbl.mem m_ins i && Oid.equal ir.Ioref.ir_target (loc i)
              | None -> not (Hashtbl.mem m_ins i));
            check "find_outref"
              (match Tables.find_outref t (rem i) with
              | Some o -> Hashtbl.mem m_outs i && Oid.equal o.Ioref.or_target (rem i)
              | None -> not (Hashtbl.mem m_outs i))
          done;
          check "counts"
            (Tables.inref_count t = List.length ins
            && Tables.outref_count t = List.length outs);
          check "approx_bytes equals a walk" (Tables.approx_bytes t = walk ()))
        ops;
      check_views (sample ());
      true)

let test_protocol_kinds () =
  Alcotest.(check string) "insert kind" "insert"
    (Protocol.kind
       (Protocol.Insert { r = Oid.make ~site:(s 0) ~index:0; by = s 1; inc = 1 }));
  Alcotest.(check string) "update kind" "update"
    (Protocol.kind (Protocol.Update { removals = []; dists = [] }));
  let r = Oid.make ~site:(s 0) ~index:3 in
  Alcotest.(check int) "move carries refs" 2
    (List.length
       (Protocol.refs_carried
          (Protocol.Move { agent = 0; refs = [ r; r ]; token = 0 })));
  Alcotest.(check int) "update carries none" 0
    (List.length
       (Protocol.refs_carried
          (Protocol.Update { removals = [ (r, 1) ]; dists = [] })))

(* --- builder + oracle integrity ------------------------------------------ *)

let test_builder_tables_consistent () =
  let eng = Engine.create (cfg 3) in
  let a = Builder.root_obj eng (s 0) in
  let b = Builder.obj eng (s 1) in
  let c = Builder.obj eng (s 2) in
  Builder.link eng ~src:a ~dst:b;
  Builder.link eng ~src:b ~dst:c;
  Builder.link eng ~src:c ~dst:a;
  Alcotest.(check (list string)) "no violations" []
    (Dgc_oracle.Oracle.table_violations eng);
  (* the inref records the right source *)
  match Tables.find_inref (Engine.site eng (s 1)).Site.tables b with
  | Some ir ->
      Alcotest.(check (list int)) "source" [ 0 ]
        (List.map Site_id.to_int (Ioref.source_sites ir))
  | None -> Alcotest.fail "missing inref"

(* --- engine: moves, inserts, pins ----------------------------------------- *)

let test_move_insert_protocol () =
  let eng = Engine.create (cfg 3) in
  Local_gc.install eng;
  let muts = Mutator.manager eng in
  (* A root at site 0 holding a local object; the agent carries the
     object's reference to site 1 where nothing knows it. *)
  let root = Builder.root_obj eng (s 0) in
  let x = Builder.obj eng (s 0) in
  Builder.link eng ~src:root ~dst:x;
  let beacon = Builder.root_obj eng (s 1) in
  Builder.link eng ~src:root ~dst:beacon;
  let a = Mutator.spawn muts ~at:(s 0) in
  Alcotest.(check bool) "load root" true (Mutator.load_root a ~dst:"r");
  Alcotest.(check bool) "read x" true
    (Mutator.read_field a ~obj:"r" ~idx:1 ~dst:"x");
  Alcotest.(check bool) "read beacon" true
    (Mutator.read_field a ~obj:"r" ~idx:0 ~dst:"b");
  let arrived = ref false in
  Alcotest.(check bool) "travel" true
    (Mutator.travel a ~via:"b" ~k:(fun () -> arrived := true));
  Alcotest.(check bool) "in flight has refs" true
    (Engine.in_flight_refs eng <> []);
  run eng 1.;
  Alcotest.(check bool) "arrived" true !arrived;
  Alcotest.(check int) "agent at site 1" 1
    (Site_id.to_int (Mutator.agent_site a));
  (* Site 1 now has an outref for x, and site 0's inref lists site 1. *)
  Alcotest.(check bool) "outref created at 1" true
    (Tables.find_outref (Engine.site eng (s 1)).Site.tables x <> None);
  (match Tables.find_inref (Engine.site eng (s 0)).Site.tables x with
  | Some ir ->
      Alcotest.(check bool) "source 1 registered" true
        (Ioref.find_source ir (s 1) <> None)
  | None -> Alcotest.fail "inref for x missing");
  Alcotest.(check (list string)) "tables consistent after move" []
    (Dgc_oracle.Oracle.table_violations eng);
  (* Drop the variable: after local traces everywhere the outref and
     the inref source disappear again. *)
  ignore (Mutator.drop a "x");
  ignore (Mutator.drop a "b");
  ignore (Mutator.drop a "r");
  Local_gc.run eng (Engine.site eng (s 1));
  run eng 1.;
  Local_gc.run eng (Engine.site eng (s 1));
  run eng 1.;
  (match Tables.find_inref (Engine.site eng (s 0)).Site.tables x with
  | Some ir ->
      Alcotest.(check bool) "source removed after updates" true
        (Ioref.find_source ir (s 1) = None)
  | None -> ());
  Alcotest.(check (list string)) "tables consistent at the end" []
    (Dgc_oracle.Oracle.table_violations eng)

let test_vars_are_roots () =
  let eng = Engine.create (cfg 1) in
  Local_gc.install eng;
  let muts = Mutator.manager eng in
  let a = Mutator.spawn muts ~at:(s 0) in
  Alcotest.(check bool) "new obj" true (Mutator.new_obj a ~dst:"v");
  let o = Option.get (Mutator.var a "v") in
  Local_gc.run eng (Engine.site eng (s 0));
  Alcotest.(check bool) "var keeps object alive" true
    (Heap.mem (Engine.site eng (s 0)).Site.heap o);
  ignore (Mutator.drop a "v");
  Local_gc.run eng (Engine.site eng (s 0));
  Alcotest.(check bool) "dropped object collected" false
    (Heap.mem (Engine.site eng (s 0)).Site.heap o)

let test_mutator_failure_modes () =
  let eng = Engine.create (cfg 2) in
  Local_gc.install eng;
  let muts = Mutator.manager eng in
  let a = Mutator.spawn muts ~at:(s 0) in
  Alcotest.(check bool) "no roots at empty site" false
    (Mutator.load_root a ~dst:"v");
  Alcotest.(check bool) "missing var read" false
    (Mutator.read_field a ~obj:"nope" ~idx:0 ~dst:"v");
  Alcotest.(check bool) "missing var write" false
    (Mutator.write a ~obj:"nope" ~value:"nope");
  Alcotest.(check bool) "missing var drop" false (Mutator.drop a "nope");
  ignore (Mutator.new_obj a ~dst:"v");
  Alcotest.(check bool) "bad index" false
    (Mutator.read_field a ~obj:"v" ~idx:0 ~dst:"w");
  let remote = Builder.obj eng (s 1) in
  let root = Builder.root_obj eng (s 0) in
  Builder.link eng ~src:root ~dst:remote;
  ignore (Mutator.load_root a ~dst:"r");
  ignore (Mutator.read_field a ~obj:"r" ~idx:0 ~dst:"rem");
  Alcotest.(check bool) "write needs local object" false
    (Mutator.write a ~obj:"rem" ~value:"v");
  Alcotest.(check int) "failures counted" 6
    (Metrics.get (Engine.metrics eng) "mutator.op_failed")

(* Random variable operations against a [Map] model: [vars] is the
   model's sorted bindings, [var] agrees with it, and each outref is
   pinned once per variable holding its target, so dropping every
   variable restores the site's pin count. *)
module Names = Map.Make (String)

type m_op =
  | M_load of string
  | M_new of string
  | M_read of string * int * string
  | M_copy of string * string
  | M_drop of string

let print_m_op = function
  | M_load d -> "load " ^ d
  | M_new d -> "new " ^ d
  | M_read (o, i, d) -> Printf.sprintf "read %s.%d -> %s" o i d
  | M_copy (src, d) -> Printf.sprintf "copy %s -> %s" src d
  | M_drop n -> "drop " ^ n

let m_names = [ "b"; "a"; "c1"; "ab"; "c" ]

let m_op_gen =
  let open QCheck2.Gen in
  let name = oneofl m_names in
  frequency
    [
      (2, map (fun d -> M_load d) name);
      (1, map (fun d -> M_new d) name);
      (4, map3 (fun o i d -> M_read (o, i, d)) name (int_bound 4) name);
      (2, map2 (fun src d -> M_copy (src, d)) name name);
      (3, map (fun n -> M_drop n) name);
    ]

let prop_mutator_vars_match_model =
  QCheck2.Test.make ~name:"variables match a map model" ~count:300
    ~print:QCheck2.Print.(list print_m_op)
    QCheck2.Gen.(list_size (int_bound 60) m_op_gen)
    (fun ops ->
      let eng = Engine.create (cfg 2) in
      let site = Engine.site eng (s 0) in
      (* A root whose fields lead to two local and two remote objects. *)
      let root = Builder.root_obj eng (s 0) in
      List.iter
        (fun k -> Builder.link eng ~src:root ~dst:(Builder.obj eng (s k)))
        [ 0; 1; 0; 1 ];
      let pins () =
        let n = ref 0 in
        Tables.iter_outrefs site.Site.tables (fun o ->
            n := !n + o.Ioref.or_pins);
        !n
      in
      let pins0 = pins () in
      let a = Mutator.spawn (Mutator.manager eng) ~at:(s 0) in
      let model = ref Names.empty in
      let set d = function
        | Some r ->
            model := Names.add d r !model;
            true
        | None -> false
      in
      let check what b = if not b then failwith what in
      List.iter
        (fun op ->
          let ok, expect =
            match op with
            | M_load d -> (Mutator.load_root a ~dst:d, set d (Some root))
            | M_new d ->
                let ok = Mutator.new_obj a ~dst:d in
                (ok, set d (Mutator.var a d))
            | M_read (o, i, d) ->
                ( Mutator.read_field a ~obj:o ~idx:i ~dst:d,
                  set d
                    (match Names.find_opt o !model with
                    | Some r when Site_id.equal (Oid.site r) (s 0) ->
                        List.nth_opt (Heap.fields site.Site.heap r) i
                    | _ -> None) )
            | M_copy (src, d) ->
                (Mutator.copy_var a ~src ~dst:d, set d (Names.find_opt src !model))
            | M_drop n ->
                let held = Names.mem n !model in
                model := Names.remove n !model;
                (Mutator.drop a n, held)
          in
          check ("result of " ^ print_m_op op) (ok = expect);
          check "vars = sorted bindings" (Mutator.vars a = Names.bindings !model);
          List.iter
            (fun n -> check "var" (Mutator.var a n = Names.find_opt n !model))
            m_names;
          let remote_held =
            Names.fold
              (fun _ r n -> if Site_id.equal (Oid.site r) (s 1) then n + 1 else n)
              !model 0
          in
          check "one pin per remote variable" (pins () = pins0 + remote_held))
        ops;
      Names.iter (fun n _ -> check "drop held" (Mutator.drop a n)) !model;
      check "pins restored" (pins () = pins0);
      Mutator.vars a = [])

let test_travel_same_site_is_sync () =
  let eng = Engine.create (cfg 2) in
  let muts = Mutator.manager eng in
  let a = Mutator.spawn muts ~at:(s 0) in
  ignore (Mutator.new_obj a ~dst:"v");
  let ran = ref false in
  Alcotest.(check bool) "travel ok" true
    (Mutator.travel a ~via:"v" ~k:(fun () -> ran := true));
  Alcotest.(check bool) "continuation ran synchronously" true !ran;
  Alcotest.(check bool) "not traveling" false (Mutator.traveling a)

(* --- crash parking --------------------------------------------------------- *)

let test_crash_parks_base_messages () =
  let eng = Engine.create (cfg 2) in
  Local_gc.install eng;
  let muts = Mutator.manager eng in
  let root0 = Builder.root_obj eng (s 0) in
  let target = Builder.root_obj eng (s 1) in
  Builder.link eng ~src:root0 ~dst:target;
  let a = Mutator.spawn muts ~at:(s 0) in
  ignore (Mutator.load_root a ~dst:"r");
  ignore (Mutator.read_field a ~obj:"r" ~idx:0 ~dst:"t");
  Engine.crash eng (s 1);
  let arrived = ref false in
  ignore (Mutator.travel a ~via:"t" ~k:(fun () -> arrived := true));
  run eng 2.;
  Alcotest.(check bool) "move parked while crashed" false !arrived;
  Engine.recover eng (s 1);
  run eng 2.;
  Alcotest.(check bool) "delivered after recovery" true !arrived

type Protocol.ext += Test_probe

let test_ext_dropped_to_crashed () =
  let eng = Engine.create (cfg 2) in
  Engine.crash eng (s 1);
  Engine.send eng ~src:(s 0) ~dst:(s 1) (Protocol.Ext Test_probe);
  Alcotest.(check int) "counted as dropped" 1
    (Metrics.get (Engine.metrics eng) "msg.dropped.crashed")

(* --- plain local GC --------------------------------------------------------- *)

let test_local_gc_basics () =
  let eng = Engine.create (cfg 2) in
  Local_gc.install eng;
  let root = Builder.root_obj eng (s 0) in
  let keep = Builder.obj eng (s 0) in
  let lose = Builder.obj eng (s 0) in
  let remote_kept = Builder.obj eng (s 1) in
  Builder.link eng ~src:root ~dst:keep;
  Builder.link eng ~src:lose ~dst:remote_kept;
  Local_gc.run eng (Engine.site eng (s 0));
  let heap0 = (Engine.site eng (s 0)).Site.heap in
  Alcotest.(check bool) "rooted kept" true (Heap.mem heap0 keep);
  Alcotest.(check bool) "unrooted freed" false (Heap.mem heap0 lose);
  (* a freshly created outref gets one round of grace, then goes away;
     after the update lands and site 1 traces, so does the object *)
  Alcotest.(check bool) "fresh outref kept one round" true
    (Tables.find_outref (Engine.site eng (s 0)).Site.tables remote_kept <> None);
  Local_gc.run eng (Engine.site eng (s 0));
  Alcotest.(check bool) "outref dropped" true
    (Tables.find_outref (Engine.site eng (s 0)).Site.tables remote_kept = None);
  run eng 1.;
  Local_gc.run eng (Engine.site eng (s 1));
  Alcotest.(check bool) "remote garbage freed after update" false
    (Heap.mem (Engine.site eng (s 1)).Site.heap remote_kept)

let test_local_gc_keeps_inref_rooted () =
  (* Flagging a live object's inref seeds a wrong free, so the oracle
     guard is off here; test_baselines checks that it catches this. *)
  let eng = Engine.create { (cfg 2) with Config.oracle_checks = false } in
  Local_gc.install eng;
  let holder = Builder.root_obj eng (s 0) in
  let target = Builder.obj eng (s 1) in
  Builder.link eng ~src:holder ~dst:target;
  Local_gc.run eng (Engine.site eng (s 1));
  Alcotest.(check bool) "inref keeps object" true
    (Heap.mem (Engine.site eng (s 1)).Site.heap target);
  (* flagged inrefs are not roots *)
  (match Tables.find_inref (Engine.site eng (s 1)).Site.tables target with
  | Some ir -> Tables.flag_inref (Engine.site eng (s 1)).Site.tables ir
  | None -> Alcotest.fail "inref missing");
  Local_gc.run eng (Engine.site eng (s 1));
  Alcotest.(check bool) "flagged inref is not a root" false
    (Heap.mem (Engine.site eng (s 1)).Site.heap target)

(* --- §6.1.2: the four remote-copy cases, message level ------------------ *)

(* A reference arriving by Move at a site exercising each case. The
   barrier effects require the core collector, so these use Sim. *)
let arrival_fixture () =
  let cfg =
    {
      Dgc_rts.Config.default with
      Dgc_rts.Config.n_sites = 3;
      delta = 3;
      trace_duration = Sim_time.zero;
      latency = Latency.Fixed (Sim_time.of_millis 5.);
    }
  in
  let sim = Dgc_core.Sim.make ~cfg () in
  (sim, sim.Dgc_core.Sim.eng)

let send_move eng ~src ~dst r =
  Engine.send eng ~src ~dst
    (Protocol.Move { agent = 999; refs = [ r ]; token = Engine.fresh_token eng })

let test_case1_local_ref_applies_barrier () =
  let sim, eng = arrival_fixture () in
  (* suspected inref at site 0, with the holder kept alive at site 1 *)
  let target = Builder.obj eng (s 0) in
  let holder = Builder.root_obj eng (s 1) in
  Builder.link eng ~src:holder ~dst:target;
  Builder.set_source_distance eng ~inref:target ~src:(s 1) 50;
  (* only site 0 traces: the artificial distance stays put *)
  Dgc_core.Collector.force_local_trace sim.Dgc_core.Sim.col (s 0);
  (match Tables.find_inref (Engine.site eng (s 0)).Site.tables target with
  | Some ir -> Alcotest.(check bool) "suspected" true ir.Ioref.ir_suspected
  | None -> Alcotest.fail "inref missing");
  send_move eng ~src:(s 1) ~dst:(s 0) target;
  run eng 1.;
  match Tables.find_inref (Engine.site eng (s 0)).Site.tables target with
  | Some ir ->
      Alcotest.(check bool) "case 1: inref force-cleaned" true
        ir.Ioref.ir_forced_clean
  | None -> Alcotest.fail "inref missing"

let test_case2_known_clean_outref_no_insert () =
  let _sim, eng = arrival_fixture () in
  let root = Builder.root_obj eng (s 0) in
  let remote = Builder.obj eng (s 2) in
  Builder.link eng ~src:root ~dst:remote;
  let before = Metrics.get (Engine.metrics eng) "msg.insert" in
  send_move eng ~src:(s 1) ~dst:(s 0) remote;
  run eng 1.;
  Alcotest.(check int) "case 2: no insert for a known outref" before
    (Metrics.get (Engine.metrics eng) "msg.insert")

let test_case3_suspected_outref_cleaned () =
  let sim, eng = arrival_fixture () in
  (* a garbage chain 1 -> 0 -> 2 whose distances we push over delta so
     site 0's outref becomes suspected *)
  let a = Builder.obj eng (s 0) in
  let b = Builder.obj eng (s 2) in
  let holder = Builder.obj eng (s 1) in
  Builder.link eng ~src:holder ~dst:a;
  Builder.link eng ~src:a ~dst:b;
  Builder.set_source_distance eng ~inref:a ~src:(s 1) 50;
  Dgc_core.Collector.force_local_trace_all sim.Dgc_core.Sim.col;
  (match Tables.find_outref (Engine.site eng (s 0)).Site.tables b with
  | Some o -> Alcotest.(check bool) "suspected" true o.Ioref.or_suspected
  | None -> Alcotest.fail "outref missing");
  send_move eng ~src:(s 1) ~dst:(s 0) b;
  run eng 1.;
  match Tables.find_outref (Engine.site eng (s 0)).Site.tables b with
  | Some o ->
      Alcotest.(check bool) "case 3: outref force-cleaned" true
        o.Ioref.or_forced_clean
  | None -> Alcotest.fail "outref missing"

let test_case4_created_outref_insert_roundtrip () =
  let _sim, eng = arrival_fixture () in
  let remote = Builder.root_obj eng (s 2) in
  Alcotest.(check bool) "no outref at site 0 yet" true
    (Tables.find_outref (Engine.site eng (s 0)).Site.tables remote = None);
  send_move eng ~src:(s 1) ~dst:(s 0) remote;
  run eng 1.;
  (* created, registered at the owner, and the insert pin released *)
  (match Tables.find_outref (Engine.site eng (s 0)).Site.tables remote with
  | Some o ->
      Alcotest.(check bool) "case 4: outref created fresh+clean" true
        (Ioref.outref_clean o);
      Alcotest.(check int) "insert pin released after Insert_done" 0
        o.Ioref.or_pins
  | None -> Alcotest.fail "outref not created");
  match Tables.find_inref (Engine.site eng (s 2)).Site.tables remote with
  | Some ir ->
      Alcotest.(check bool) "owner registered the new source" true
        (Ioref.find_source ir (s 0) <> None)
  | None -> Alcotest.fail "owner inref missing"

(* --- the scripted program interpreter ------------------------------------ *)

let test_run_program_all_instructions () =
  let eng = Engine.create (cfg 2) in
  Local_gc.install eng;
  let muts = Mutator.manager eng in
  let root0 = Builder.root_obj eng (s 0) in
  let remote = Builder.root_obj eng (s 1) in
  Builder.link eng ~src:root0 ~dst:remote;
  let a = Mutator.spawn muts ~at:(s 0) in
  let finished = ref false in
  Mutator.run_program a
    ~on_done:(fun () -> finished := true)
    [
      Mutator.Load_root "r";
      Mutator.Load_root_named (root0, "r2");
      Mutator.Read { obj = "r"; idx = 0; dst = "t" };
      Mutator.Travel "t";
      (* now at site 1 *)
      Mutator.New "n";
      Mutator.Write { obj = "t"; value = "n" };
      Mutator.Copy { src = "n"; dst = "n2" };
      Mutator.Wait (Sim_time.of_millis 50.);
      Mutator.Unlink { obj = "t"; target = "n" };
      Mutator.Write { obj = "t"; value = "n2" };
      Mutator.Drop "n";
    ];
  run eng 5.;
  Alcotest.(check bool) "program completed" true !finished;
  Alcotest.(check int) "agent moved" 1 (Site_id.to_int (Mutator.agent_site a));
  (* the new object ended up linked under the remote root *)
  let n2 = Option.get (Mutator.var a "n2") in
  Alcotest.(check bool) "written reference present" true
    (List.exists (Oid.equal n2)
       (Heap.fields (Engine.site eng (s 1)).Site.heap remote));
  Alcotest.(check (list string)) "tables consistent" []
    (Dgc_oracle.Oracle.table_violations eng)

let () =
  Alcotest.run "rts"
    [
      ( "ioref",
        [
          Alcotest.test_case "source lists" `Quick test_inref_sources;
          Alcotest.test_case "clean predicates" `Quick test_clean_predicates;
        ] );
      ( "tables",
        [
          Alcotest.test_case "tables" `Quick test_tables;
          QCheck_alcotest.to_alcotest prop_tables_match_model;
        ] );
      ("protocol", [ Alcotest.test_case "kinds and refs" `Quick test_protocol_kinds ]);
      ( "builder",
        [
          Alcotest.test_case "tables consistent" `Quick
            test_builder_tables_consistent;
        ] );
      ( "engine",
        [
          Alcotest.test_case "move + insert protocol" `Quick
            test_move_insert_protocol;
          Alcotest.test_case "crash parks base messages" `Quick
            test_crash_parks_base_messages;
          Alcotest.test_case "ext dropped to crashed site" `Quick
            test_ext_dropped_to_crashed;
        ] );
      ( "mutator",
        [
          Alcotest.test_case "variables are roots" `Quick test_vars_are_roots;
          Alcotest.test_case "failure modes are total" `Quick
            test_mutator_failure_modes;
          Alcotest.test_case "same-site travel synchronous" `Quick
            test_travel_same_site_is_sync;
          QCheck_alcotest.to_alcotest prop_mutator_vars_match_model;
        ] );
      ( "local-gc",
        [
          Alcotest.test_case "mark-sweep + updates" `Quick test_local_gc_basics;
          Alcotest.test_case "inref roots and flags" `Quick
            test_local_gc_keeps_inref_rooted;
        ] );
      ( "remote-copy-cases",
        [
          Alcotest.test_case "case 1: local ref, barrier" `Quick
            test_case1_local_ref_applies_barrier;
          Alcotest.test_case "case 2: known clean outref" `Quick
            test_case2_known_clean_outref_no_insert;
          Alcotest.test_case "case 3: suspected outref cleaned" `Quick
            test_case3_suspected_outref_cleaned;
          Alcotest.test_case "case 4: insert round-trip" `Quick
            test_case4_created_outref_insert_roundtrip;
        ] );
      ( "programs",
        [
          Alcotest.test_case "all instructions" `Quick
            test_run_program_all_instructions;
        ] );
    ]
