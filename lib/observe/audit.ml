open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts
open Dgc_core
module Tel = Dgc_telemetry
module Oracle = Dgc_oracle.Oracle

type verdict =
  | Not_suspected
  | Suspected_not_triggered
  | Trace_timed_out
  | Trace_incomplete
  | Barrier_stalled
  | Clean_rule_blocked
  | Flagged_not_swept
  | Unexplained

let verdict_name = function
  | Not_suspected -> "NotSuspected"
  | Suspected_not_triggered -> "SuspectedNotTriggered"
  | Trace_timed_out -> "TraceTimedOut"
  | Trace_incomplete -> "TraceIncomplete"
  | Barrier_stalled -> "BarrierStalled"
  | Clean_rule_blocked -> "CleanRuleBlocked"
  | Flagged_not_swept -> "FlaggedNotSwept"
  | Unexplained -> "Unexplained"

type evidence =
  | E_span of { span : int; name : string; site : int; note : string }
  | E_journal of { at : float; line : string }
  | E_state of string

type component = {
  co_objects : Oid.t list;
  co_sites : Site_id.t list;
  co_cyclic : bool;
  co_cross_site : bool;
  co_verdict : verdict;
  co_evidence : evidence list;
  co_traces : string list;
}

type phase_stat = { ph_name : string; ph_ms : float; ph_count : int }

type critical_path = {
  cp_trace : string;
  cp_root : int;
  cp_total_ms : float;
  cp_spans : int list;
}

type report = {
  rp_at : float;
  rp_garbage_objects : int;
  rp_components : component list;
  rp_phases : phase_stat list;
  rp_site_ms : (int * float) list;
  rp_paths : critical_path list;
}

let tkey = Trace_id.to_string

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  nn = 0
  ||
  let rec go i =
    i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
  in
  go 0

(* ---- garbage components ---------------------------------------------- *)

(* SCCs of the reference graph restricted to oracle-known garbage. *)
let garbage_components eng garbage =
  let oids = Array.of_list (Oid.Set.elements garbage) in
  let n = Array.length oids in
  let index = Oid.Tbl.create (max 16 n) in
  Array.iteri (fun i oid -> Oid.Tbl.replace index oid i) oids;
  let fields_of oid =
    Heap.fields (Engine.site eng (Oid.site oid)).Site.heap oid
  in
  let succ i =
    List.filter_map (fun f -> Oid.Tbl.find_opt index f) (fields_of oids.(i))
  in
  let scc = Scc.tarjan ~n ~succ in
  let members = Array.make scc.Scc.count [] in
  for i = n - 1 downto 0 do
    let c = scc.Scc.component.(i) in
    members.(c) <- oids.(i) :: members.(c)
  done;
  Array.to_list members
  |> List.filter (fun m -> m <> [])
  |> List.map (fun objects ->
         let objects = List.sort Oid.compare objects in
         let in_comp oid = List.exists (Oid.equal oid) objects in
         let cyclic =
           match objects with
           | [ o ] -> List.exists (Oid.equal o) (fields_of o)
           | _ -> true
         in
         let sites =
           List.map Oid.site objects |> List.sort_uniq Site_id.compare
         in
         let cross_site =
           List.length sites > 1
           || List.exists
                (fun o ->
                  List.exists
                    (fun f ->
                      in_comp f
                      && not (Site_id.equal (Oid.site f) (Oid.site o)))
                    (fields_of o))
                objects
         in
         (objects, sites, cyclic, cross_site))

(* ---- per-component ioref state --------------------------------------- *)

type comp_state = {
  cs_inrefs : Ioref.inref list;  (** inrefs whose target is in the component *)
  cs_outrefs : (Site_id.t * Ioref.outref) list;
      (** outrefs into the component (at the inrefs' source sites) and
          outrefs leaving the component's objects *)
}

let comp_state eng objects =
  let tables_of site = (Engine.site eng site).Site.tables in
  let inrefs =
    List.filter_map (fun o -> Tables.find_inref (tables_of (Oid.site o)) o)
      objects
  in
  let seen = Hashtbl.create 16 in
  let outs = ref [] in
  let add_out site target =
    let key = (Site_id.to_int site, Oid.to_string target) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      match Tables.find_outref (tables_of site) target with
      | Some o -> outs := (site, o) :: !outs
      | None -> ()
    end
  in
  (* Entry points: outrefs at the source sites of the component's inrefs. *)
  List.iter
    (fun (ir : Ioref.inref) ->
      List.iter
        (fun (s : Ioref.source) -> add_out s.Ioref.src_site ir.Ioref.ir_target)
        ir.Ioref.ir_sources)
    inrefs;
  (* Exits: cross-site fields of the component's own objects. *)
  List.iter
    (fun o ->
      List.iter
        (fun f ->
          if not (Site_id.equal (Oid.site f) (Oid.site o)) then
            add_out (Oid.site o) f)
        (Heap.fields (Engine.site eng (Oid.site o)).Site.heap o))
    objects;
  { cs_inrefs = inrefs; cs_outrefs = List.rev !outs }

(* ---- span log index --------------------------------------------------- *)

type span_index = {
  si_spans : Tel.Tracer.span list;
  si_by_trace : (string, Tel.Tracer.span list ref) Hashtbl.t;
}

let index_spans = function
  | None -> { si_spans = []; si_by_trace = Hashtbl.create 1 }
  | Some tr ->
      let spans = Tel.Tracer.spans tr in
      let by_trace = Hashtbl.create 32 in
      List.iter
        (fun (sp : Tel.Tracer.span) ->
          match Hashtbl.find_opt by_trace sp.Tel.Tracer.trace with
          | Some l -> l := sp :: !l
          | None -> Hashtbl.add by_trace sp.Tel.Tracer.trace (ref [ sp ]))
        spans;
      { si_spans = spans; si_by_trace = by_trace }

let spans_of_trace si key =
  match Hashtbl.find_opt si.si_by_trace key with
  | Some l -> List.rev !l
  | None -> []

let span_ref_strings (sp : Tel.Tracer.span) =
  List.filter_map
    (fun (k, v) ->
      match (k, v) with
      | ("ref" | "root"), Tel.Json.Str s -> Some s
      | _ -> None)
    sp.Tel.Tracer.attrs

(* ---- evidence --------------------------------------------------------- *)

let e_span ?(note = "") (sp : Tel.Tracer.span) =
  let note =
    if note <> "" then note
    else if sp.Tel.Tracer.finish = None then "still open"
    else ""
  in
  E_span
    {
      span = sp.Tel.Tracer.id;
      name = sp.Tel.Tracer.name;
      site = sp.Tel.Tracer.site;
      note;
    }

let journal_evidence eng ~needles ~cats =
  match Engine.journal eng with
  | None -> []
  | Some j ->
      Journal.entries j
      |> List.filter (fun (e : Journal.entry) ->
             (cats = [] || List.mem e.Journal.cat cats)
             && List.exists (fun n -> contains_sub e.Journal.text n) needles)
      |> List.map (fun (e : Journal.entry) ->
             E_journal
               {
                 at = Sim_time.to_seconds e.Journal.at;
                 line =
                   Printf.sprintf "%s: %s" e.Journal.cat e.Journal.text;
               })

let take_n n l =
  let rec go n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: rest -> x :: go (n - 1) rest
  in
  go n l

let describe_inref (ir : Ioref.inref) =
  Printf.sprintf
    "inref %s: dist=%d threshold=%d%s%s%s%s"
    (Oid.to_string ir.Ioref.ir_target)
    (Ioref.inref_dist ir) ir.Ioref.ir_back_threshold
    (if ir.Ioref.ir_suspected then " suspected" else " not-suspected")
    (if ir.Ioref.ir_flagged then " flagged" else "")
    (if ir.Ioref.ir_forced_clean then " forced-clean" else "")
    (if ir.Ioref.ir_fresh then " fresh" else "")

let describe_outref site (o : Ioref.outref) =
  Printf.sprintf
    "outref %s at %s: dist=%d threshold=%d%s%s%s%s"
    (Oid.to_string o.Ioref.or_target)
    (Format.asprintf "%a" Site_id.pp site)
    o.Ioref.or_dist o.Ioref.or_back_threshold
    (if o.Ioref.or_suspected then " suspected" else " not-suspected")
    (if o.Ioref.or_forced_clean then " forced-clean" else "")
    (if o.Ioref.or_pins > 0 then Printf.sprintf " pins=%d" o.Ioref.or_pins
     else "")
    (if o.Ioref.or_fresh then " fresh" else "")

(* ---- verdict assignment ----------------------------------------------- *)

let decide eng back si objects cs =
  let oid_strings = List.map Oid.to_string objects in
  (* Traces that touched the component: recorded roots, span ref
     attributes, and visited marks still parked on its iorefs. *)
  let touched = Hashtbl.create 8 in
  let touch key = Hashtbl.replace touched key () in
  List.iter
    (fun (trace, (st : Back_trace.trace_stat)) ->
      if List.exists (Oid.equal st.Back_trace.ts_root) objects then
        touch (tkey trace))
    (Back_trace.stats back);
  List.iter
    (fun (sp : Tel.Tracer.span) ->
      if
        List.exists (fun s -> List.mem s oid_strings) (span_ref_strings sp)
      then touch sp.Tel.Tracer.trace)
    si.si_spans;
  List.iter
    (fun (ir : Ioref.inref) ->
      Trace_id.Set.iter (fun tr -> touch (tkey tr)) ir.Ioref.ir_visited)
    cs.cs_inrefs;
  List.iter
    (fun (_, (o : Ioref.outref)) ->
      Trace_id.Set.iter (fun tr -> touch (tkey tr)) o.Ioref.or_visited)
    cs.cs_outrefs;
  let trace_keys =
    Hashtbl.fold (fun k () acc -> k :: acc) touched []
    |> List.sort String.compare
  in
  let stats_touching =
    List.filter
      (fun (trace, _) -> Hashtbl.mem touched (tkey trace))
      (Back_trace.stats back)
  in
  let jev ?(cats = []) () = journal_evidence eng ~needles:(oid_strings @ trace_keys) ~cats in
  let state_ev =
    List.map (fun ir -> E_state (describe_inref ir)) cs.cs_inrefs
    @ List.map (fun (s, o) -> E_state (describe_outref s o)) cs.cs_outrefs
  in
  let any_suspected =
    List.exists (fun (ir : Ioref.inref) -> ir.Ioref.ir_suspected) cs.cs_inrefs
    || List.exists
         (fun (_, (o : Ioref.outref)) -> o.Ioref.or_suspected)
         cs.cs_outrefs
  in
  let any_flagged =
    List.exists (fun (ir : Ioref.inref) -> ir.Ioref.ir_flagged) cs.cs_inrefs
  in
  let barrier_held =
    List.exists Ioref.inref_held cs.cs_inrefs
    || List.exists (fun (_, o) -> Ioref.outref_held o) cs.cs_outrefs
  in
  if cs.cs_inrefs = [] && cs.cs_outrefs = [] then
    (* No inter-site reference involved: plain local garbage, not back
       tracing's problem — the owner's next local mark-sweep frees it. *)
    ( Not_suspected,
      [
        E_state
          (Printf.sprintf
             "no ioref involves the component; local mark-sweep at %s \
              collects it without back tracing"
             (String.concat ","
                (List.map (fun o -> Format.asprintf "%a" Site_id.pp (Oid.site o))
                   objects
                |> List.sort_uniq String.compare)));
      ],
      trace_keys )
  else if trace_keys = [] && not any_suspected then
    (Not_suspected, state_ev @ take_n 4 (jev ()), trace_keys)
  else if stats_touching = [] then
    (* Suspected (or at least known) but no back trace ever ran on it:
       the §4.3 trigger never fired. *)
    (Suspected_not_triggered, state_ev @ take_n 4 (jev ()), trace_keys)
  else begin
    (* Analyze the most recent trace that touched the component. *)
    let trace, st =
      List.fold_left
        (fun (bt, bs) (t, s) ->
          if
            Sim_time.compare s.Back_trace.ts_started
              bs.Back_trace.ts_started
            >= 0
          then (t, s)
          else (bt, bs))
        (List.hd stats_touching) (List.tl stats_touching)
    in
    let key = tkey trace in
    (* With a profiler attached, cite the trace's cost-ledger line: a
       timed-out or incomplete verdict reads differently at 2 messages
       than at 40 messages and 6 retries. *)
    let ledger_ev =
      match Engine.profile eng with
      | None -> []
      | Some _ ->
          let row = Back_trace.ledger_row trace st in
          [ E_state (Dgc_profile.Ledger.describe row) ]
    in
    let tspans = spans_of_trace si key in
    let open_spans =
      List.filter (fun (sp : Tel.Tracer.span) -> sp.Tel.Tracer.finish = None) tspans
    in
    let named prefix =
      List.filter
        (fun (sp : Tel.Tracer.span) ->
          let n = sp.Tel.Tracer.name in
          String.length n >= String.length prefix
          && String.sub n 0 (String.length prefix) = prefix)
        tspans
    in
    let verdict, ev, keys =
      match st.Back_trace.ts_outcome with
      | None ->
        (* Started, never concluded: crash or partition ate the trace.
           The "san" category carries dgc-san's lost-trace proofs, so
           when a sanitizer ran the verdict cites causal evidence (no
           in-flight message, no armed timer) rather than heuristics. *)
        let ev =
          List.map (e_span ~note:"still open") open_spans
          @ take_n 2 (jev ~cats:[ "san" ] ())
          @ take_n 4 (jev ~cats:[ "back"; "fault" ] ())
          @ [
              E_state
                (Printf.sprintf
                   "%s started at %.3fs from %s, no outcome recorded" key
                   (Sim_time.to_seconds st.Back_trace.ts_started)
                   (Oid.to_string st.Back_trace.ts_root));
            ]
        in
        (Trace_incomplete, ev, trace_keys)
    | Some (Verdict.Garbage, _) ->
        if any_flagged then
          ( Flagged_not_swept,
            List.filter
              (function E_state s -> contains_sub s "flagged" | _ -> false)
              state_ev
            @ take_n 4 (jev ~cats:[ "back" ] ())
            @ [
                E_state
                  (Printf.sprintf
                     "%s concluded Garbage; flagged inrefs await the next \
                      local sweep" key);
              ],
            trace_keys )
        else
          (* Concluded Garbage at the initiator but the flags never
             landed: the §4.5 report was lost (crash/partition). *)
          ( Trace_incomplete,
            List.map (e_span ~note:"report undelivered") (named "report")
            @ List.map (fun sp -> e_span sp) (named "timeout.visited_ttl")
            @ take_n 2 (jev ~cats:[ "san" ] ())
            @ take_n 4 (jev ~cats:[ "back"; "fault" ] ())
            @ [
                E_state
                  (Printf.sprintf
                     "%s concluded Garbage but no inref of the component \
                      is flagged — report phase lost" key);
              ],
            trace_keys )
    | Some (Verdict.Live, _) -> (
        let clean_rule = named "clean_rule" in
        let timeouts = named "timeout." in
        match (clean_rule, timeouts) with
        | _ :: _, _ ->
            ( Clean_rule_blocked,
              List.map (fun sp -> e_span sp) clean_rule @ take_n 4 (jev ~cats:[ "back"; "barrier" ] ()),
              trace_keys )
        | [], _ :: _ ->
            ( Trace_timed_out,
              List.map (fun sp -> e_span sp) timeouts
              @ take_n 4 (jev ~cats:[ "back"; "fault" ] ()),
              trace_keys )
        | [], [] ->
            if barrier_held then
              ( Barrier_stalled,
                List.filter
                  (function
                    | E_state s ->
                        contains_sub s "forced-clean"
                        || contains_sub s "pins=" || contains_sub s "fresh"
                    | _ -> false)
                  state_ev
                @ take_n 4 (jev ~cats:[ "barrier" ] ()),
                trace_keys )
            else if
              (* Live with no witness, thresholds since bumped out of
                 reach: the §4.3 re-trigger is starved. *)
              List.exists
                (fun (_, (o : Ioref.outref)) ->
                  o.Ioref.or_suspected
                  && o.Ioref.or_dist <= o.Ioref.or_back_threshold)
                cs.cs_outrefs
            then
              ( Suspected_not_triggered,
                state_ev @ take_n 4 (jev ()),
                trace_keys )
            else (Unexplained, take_n 6 (jev ()), trace_keys))
    in
    (verdict, ev @ ledger_ev, keys)
  end

(* ---- critical paths --------------------------------------------------- *)

let dur (sp : Tel.Tracer.span) =
  match sp.Tel.Tracer.finish with
  | Some e -> Float.max 0. (e -. sp.Tel.Tracer.start)
  | None -> 0.

let critical_paths si =
  let children = Hashtbl.create 64 in
  List.iter
    (fun (sp : Tel.Tracer.span) ->
      match sp.Tel.Tracer.parent with
      | Some p ->
          let l =
            match Hashtbl.find_opt children p with
            | Some l -> l
            | None ->
                let l = ref [] in
                Hashtbl.add children p l;
                l
          in
          l := sp :: !l
      | None -> ())
    si.si_spans;
  let kids (sp : Tel.Tracer.span) =
    match Hashtbl.find_opt children sp.Tel.Tracer.id with
    | Some l ->
        List.filter (fun (c : Tel.Tracer.span) -> c.Tel.Tracer.finish <> None) !l
    | None -> []
  in
  let roots =
    List.filter
      (fun (sp : Tel.Tracer.span) ->
        sp.Tel.Tracer.name = "back_trace" && sp.Tel.Tracer.finish <> None)
      si.si_spans
  in
  let phase_tbl = Hashtbl.create 16 in
  let site_tbl = Hashtbl.create 16 in
  let account (sp : Tel.Tracer.span) self_s =
    let ms = self_s *. 1000. in
    let name = sp.Tel.Tracer.name in
    (match Hashtbl.find_opt phase_tbl name with
    | Some (ms0, n0) -> Hashtbl.replace phase_tbl name (ms0 +. ms, n0 + 1)
    | None -> Hashtbl.replace phase_tbl name (ms, 1));
    let site = sp.Tel.Tracer.site in
    match Hashtbl.find_opt site_tbl site with
    | Some ms0 -> Hashtbl.replace site_tbl site (ms0 +. ms)
    | None -> Hashtbl.replace site_tbl site ms
  in
  let paths =
    List.map
      (fun root ->
        let rec descend (sp : Tel.Tracer.span) acc =
          match kids sp with
          | [] ->
              account sp (dur sp);
              List.rev (sp :: acc)
          | ks ->
              let best =
                List.fold_left
                  (fun best (c : Tel.Tracer.span) ->
                    match (best : Tel.Tracer.span option) with
                    | None -> Some c
                    | Some b
                      when c.Tel.Tracer.finish > b.Tel.Tracer.finish ->
                        Some c
                    | Some b -> Some b)
                  None ks
              in
              let best = Option.get best in
              account sp (Float.max 0. (dur sp -. dur best));
              descend best (sp :: acc)
        in
        let path = descend root [] in
        {
          cp_trace = root.Tel.Tracer.trace;
          cp_root = root.Tel.Tracer.id;
          cp_total_ms = dur root *. 1000.;
          cp_spans = List.map (fun (sp : Tel.Tracer.span) -> sp.Tel.Tracer.id) path;
        })
      roots
  in
  let phases =
    Hashtbl.fold
      (fun name (ms, n) acc -> { ph_name = name; ph_ms = ms; ph_count = n } :: acc)
      phase_tbl []
    |> List.sort (fun a b -> String.compare a.ph_name b.ph_name)
  in
  let site_ms =
    Hashtbl.fold (fun s ms acc -> (s, ms) :: acc) site_tbl []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  (paths, phases, site_ms)

(* ---- the audit -------------------------------------------------------- *)

let run col =
  let eng = Collector.engine col in
  let back = Collector.back col in
  let garbage = Oracle.garbage_set eng in
  let si = index_spans (Engine.tracer eng) in
  let components =
    garbage_components eng garbage
    |> List.map (fun (objects, sites, cyclic, cross_site) ->
           let cs = comp_state eng objects in
           let verdict, evidence, traces = decide eng back si objects cs in
           {
             co_objects = objects;
             co_sites = sites;
             co_cyclic = cyclic;
             co_cross_site = cross_site;
             co_verdict = verdict;
             co_evidence = evidence;
             co_traces = traces;
           })
  in
  let paths, phases, site_ms = critical_paths si in
  {
    rp_at = Sim_time.to_seconds (Engine.now eng);
    rp_garbage_objects = Oid.Set.cardinal garbage;
    rp_components = components;
    rp_phases = phases;
    rp_site_ms = site_ms;
    rp_paths = paths;
  }

let comp_label c =
  String.concat "," (List.map Oid.to_string c.co_objects)

let strict_failures report =
  List.filter_map
    (fun c ->
      if c.co_verdict = Unexplained then
        Some
          (Printf.sprintf "component {%s}: Unexplained surviving garbage"
             (comp_label c))
      else if c.co_evidence = [] then
        Some
          (Printf.sprintf "component {%s}: verdict %s carries no evidence"
             (comp_label c)
             (verdict_name c.co_verdict))
      else None)
    report.rp_components

(* ---- JSON ------------------------------------------------------------- *)

let json_of_evidence = function
  | E_span { span; name; site; note } ->
      Tel.Json.Obj
        ([
           ("type", Tel.Json.Str "span");
           ("span", Tel.Json.Int span);
           ("name", Tel.Json.Str name);
           ("site", Tel.Json.Int site);
         ]
        @ if note = "" then [] else [ ("note", Tel.Json.Str note) ])
  | E_journal { at; line } ->
      Tel.Json.Obj
        [
          ("type", Tel.Json.Str "journal");
          ("at", Tel.Json.Float at);
          ("line", Tel.Json.Str line);
        ]
  | E_state s ->
      Tel.Json.Obj [ ("type", Tel.Json.Str "state"); ("text", Tel.Json.Str s) ]

let json_of_component c =
  Tel.Json.Obj
    [
      ( "objects",
        Tel.Json.Arr
          (List.map (fun o -> Tel.Json.Str (Oid.to_string o)) c.co_objects) );
      ( "sites",
        Tel.Json.Arr
          (List.map (fun s -> Tel.Json.Int (Site_id.to_int s)) c.co_sites) );
      ("cyclic", Tel.Json.Bool c.co_cyclic);
      ("cross_site", Tel.Json.Bool c.co_cross_site);
      ("verdict", Tel.Json.Str (verdict_name c.co_verdict));
      ("evidence", Tel.Json.Arr (List.map json_of_evidence c.co_evidence));
      ("traces", Tel.Json.Arr (List.map (fun t -> Tel.Json.Str t) c.co_traces));
    ]

let to_json report =
  Tel.Json.Obj
    [
      ("schema", Tel.Json.Str "dgc.audit/1");
      ("at", Tel.Json.Float report.rp_at);
      ("garbage_objects", Tel.Json.Int report.rp_garbage_objects);
      ( "components",
        Tel.Json.Arr (List.map json_of_component report.rp_components) );
      ( "phases",
        Tel.Json.Obj
          (List.map
             (fun p ->
               ( p.ph_name,
                 Tel.Json.Obj
                   [
                     ("ms", Tel.Json.Float p.ph_ms);
                     ("count", Tel.Json.Int p.ph_count);
                   ] ))
             report.rp_phases) );
      ( "site_ms",
        Tel.Json.Obj
          (List.map
             (fun (s, ms) -> (string_of_int s, Tel.Json.Float ms))
             report.rp_site_ms) );
      ( "critical_paths",
        Tel.Json.Arr
          (List.map
             (fun p ->
               Tel.Json.Obj
                 [
                   ("trace", Tel.Json.Str p.cp_trace);
                   ("root", Tel.Json.Int p.cp_root);
                   ("total_ms", Tel.Json.Float p.cp_total_ms);
                   ( "spans",
                     Tel.Json.Arr (List.map (fun i -> Tel.Json.Int i) p.cp_spans)
                   );
                 ])
             report.rp_paths) );
    ]

(* ---- printing --------------------------------------------------------- *)

let pp_evidence ppf = function
  | E_span { span; name; site; note } ->
      Format.fprintf ppf "span #%d %s @@ site %d%s" span name site
        (if note = "" then "" else " (" ^ note ^ ")")
  | E_journal { at; line } -> Format.fprintf ppf "journal [%.3fs] %s" at line
  | E_state s -> Format.fprintf ppf "state: %s" s

let pp ppf report =
  Format.fprintf ppf "@[<v>audit at %.3fs: %d garbage objects in %d components"
    report.rp_at report.rp_garbage_objects
    (List.length report.rp_components);
  List.iter
    (fun c ->
      Format.fprintf ppf "@,{%s}%s%s -> %s" (comp_label c)
        (if c.co_cyclic then " cyclic" else "")
        (if c.co_cross_site then " cross-site" else " local")
        (verdict_name c.co_verdict);
      if c.co_traces <> [] then
        Format.fprintf ppf "@,  traces: %s" (String.concat " " c.co_traces);
      List.iter (fun e -> Format.fprintf ppf "@,  %a" pp_evidence e) c.co_evidence)
    report.rp_components;
  if report.rp_phases <> [] then begin
    Format.fprintf ppf "@,critical-path self-time per phase:";
    List.iter
      (fun p ->
        Format.fprintf ppf "@,  %-20s %8.2f ms (%d spans)" p.ph_name p.ph_ms
          p.ph_count)
      report.rp_phases;
    Format.fprintf ppf "@,critical-path self-time per site:";
    List.iter
      (fun (s, ms) -> Format.fprintf ppf "@,  site %-14d %8.2f ms" s ms)
      report.rp_site_ms
  end;
  Format.fprintf ppf "@]"
