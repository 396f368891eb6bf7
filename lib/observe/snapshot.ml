open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts
open Dgc_core
module Tel = Dgc_telemetry

type ioref_view = {
  v_ref : Oid.t;
  v_dist : int;
  v_threshold : int;
  v_suspected : bool;
  v_fresh : bool;
  v_forced_clean : bool;
  v_flagged : bool;
  v_pins : int;
  v_visited : Trace_id.t list;
  v_linked : Oid.t list;
  v_sources : (Site_id.t * int) list;
}

type site_view = {
  sv_site : Site_id.t;
  sv_crashed : bool;
  sv_objects : int;
  sv_trace_epoch : int;
  sv_in_window : bool;
  sv_inrefs : ioref_view list;
  sv_outrefs : ioref_view list;
  sv_frames : Back_trace.frame_info list;
}

type t = {
  at : Sim_time.t;
  sites : site_view list;
  memo : (string * Metrics.hist_stats) list;
  open_spans : int;
}

let view_of_inref (ir : Ioref.inref) =
  {
    v_ref = ir.Ioref.ir_target;
    v_dist = Ioref.inref_dist ir;
    v_threshold = ir.Ioref.ir_back_threshold;
    v_suspected = ir.Ioref.ir_suspected;
    v_fresh = ir.Ioref.ir_fresh;
    v_forced_clean = ir.Ioref.ir_forced_clean;
    v_flagged = ir.Ioref.ir_flagged;
    v_pins = 0;
    v_visited = Trace_id.Set.elements ir.Ioref.ir_visited;
    v_linked = List.sort Oid.compare ir.Ioref.ir_outset;
    v_sources =
      List.map
        (fun s -> (s.Ioref.src_site, s.Ioref.src_dist))
        ir.Ioref.ir_sources
      |> List.sort compare;
  }

let view_of_outref (o : Ioref.outref) =
  {
    v_ref = o.Ioref.or_target;
    v_dist = o.Ioref.or_dist;
    v_threshold = o.Ioref.or_back_threshold;
    v_suspected = o.Ioref.or_suspected;
    v_fresh = o.Ioref.or_fresh;
    v_forced_clean = o.Ioref.or_forced_clean;
    v_flagged = false;
    v_pins = o.Ioref.or_pins;
    v_visited = Trace_id.Set.elements o.Ioref.or_visited;
    v_linked = List.sort Oid.compare o.Ioref.or_inset;
    v_sources = [];
  }

let by_ref a b = Oid.compare a.v_ref b.v_ref

let take col =
  let eng = Collector.engine col in
  let back = Collector.back col in
  let sites =
    Array.to_list (Engine.sites eng)
    |> List.map (fun (s : Site.t) ->
           let id = s.Site.id in
           let inrefs =
             List.map view_of_inref (Tables.inrefs s.Site.tables)
             |> List.sort by_ref
           in
           let outrefs =
             List.map view_of_outref (Tables.outrefs s.Site.tables)
             |> List.sort by_ref
           in
           {
             sv_site = id;
             sv_crashed = s.Site.crashed;
             sv_objects = Heap.object_count s.Site.heap;
             sv_trace_epoch = s.Site.trace_epoch;
             sv_in_window = Collector.in_window col id;
             sv_inrefs = inrefs;
             sv_outrefs = outrefs;
             sv_frames = Back_trace.open_frames back id;
           })
  in
  let memo =
    List.filter
      (fun (name, _) -> String.length name >= 6 && String.sub name 0 6 = "trace.")
      (Metrics.hists (Engine.metrics eng))
  in
  let open_spans =
    match Engine.tracer eng with
    | Some tr -> Tel.Tracer.open_count tr
    | None -> 0
  in
  { at = Engine.now eng; sites; memo; open_spans }

(* --- JSON ------------------------------------------------------------- *)

let jstr s = Tel.Json.Str s
let jint i = Tel.Json.Int i
let jbool b = Tel.Json.Bool b
let joid r = jstr (Oid.to_string r)
let jtrace tr = jstr (Trace_id.to_string tr)

let json_of_view ~kind v =
  Tel.Json.Obj
    ([
       ("ref", joid v.v_ref);
       ("dist", jint v.v_dist);
       ("threshold", jint v.v_threshold);
       ("suspected", jbool v.v_suspected);
       ("fresh", jbool v.v_fresh);
       ("forced_clean", jbool v.v_forced_clean);
     ]
    @ (match kind with
      | `Inref ->
          [
            ("flagged", jbool v.v_flagged);
            ( "sources",
              Tel.Json.Arr
                (List.map
                   (fun (s, d) ->
                     Tel.Json.Obj
                       [
                         ("site", jint (Site_id.to_int s)); ("dist", jint d);
                       ])
                   v.v_sources) );
            ("outset", Tel.Json.Arr (List.map joid v.v_linked));
          ]
      | `Outref ->
          [
            ("pins", jint v.v_pins);
            ("inset", Tel.Json.Arr (List.map joid v.v_linked));
          ])
    @ [ ("visited", Tel.Json.Arr (List.map jtrace v.v_visited)) ])

let json_of_frame (fi : Back_trace.frame_info) =
  Tel.Json.Obj
    ([
       ("id", jint fi.Back_trace.fi_id);
       ("trace", jtrace fi.Back_trace.fi_trace);
       ("ref", joid fi.Back_trace.fi_ioref);
       ("kind", jstr fi.Back_trace.fi_kind);
       ("pending", jint fi.Back_trace.fi_pending);
       ( "started",
         Tel.Json.Float (Sim_time.to_seconds fi.Back_trace.fi_started) );
     ]
    @
    match fi.Back_trace.fi_span with
    | Some id -> [ ("span", jint id) ]
    | None -> [])

let json_of_site sv =
  Tel.Json.Obj
    [
      ("site", jint (Site_id.to_int sv.sv_site));
      ("crashed", jbool sv.sv_crashed);
      ("objects", jint sv.sv_objects);
      ("trace_epoch", jint sv.sv_trace_epoch);
      ("in_window", jbool sv.sv_in_window);
      ("inrefs", Tel.Json.Arr (List.map (json_of_view ~kind:`Inref) sv.sv_inrefs));
      ( "outrefs",
        Tel.Json.Arr (List.map (json_of_view ~kind:`Outref) sv.sv_outrefs) );
      ("frames", Tel.Json.Arr (List.map json_of_frame sv.sv_frames));
    ]

let to_json t =
  Tel.Json.Obj
    [
      ("schema", jstr "dgc.snapshot/1");
      ("at", Tel.Json.Float (Sim_time.to_seconds t.at));
      ("sites", Tel.Json.Arr (List.map json_of_site t.sites));
      ( "memo",
        Tel.Json.Obj
          (List.map
             (fun (name, (h : Metrics.hist_stats)) ->
               ( name,
                 Tel.Json.Obj
                   [
                     ("n", jint h.Metrics.n);
                     ("p50", Tel.Json.Float h.Metrics.p50);
                     ("p95", Tel.Json.Float h.Metrics.p95);
                     ("max", Tel.Json.Float h.Metrics.max);
                   ] ))
             t.memo) );
      ("open_spans", jint t.open_spans);
    ]

(* --- diff ------------------------------------------------------------- *)

type change = {
  ch_site : Site_id.t;
  ch_what : string;
  ch_before : string;
  ch_after : string;
}

let describe_view ~kind v =
  let flags =
    List.filter_map
      (fun (name, on) -> if on then Some name else None)
      [
        ("suspected", v.v_suspected);
        ("fresh", v.v_fresh);
        ("forced_clean", v.v_forced_clean);
        ("flagged", v.v_flagged);
      ]
  in
  Printf.sprintf "dist=%d thr=%s%s%s%s" v.v_dist
    (if v.v_threshold >= Ioref.infinity_dist then "inf"
     else string_of_int v.v_threshold)
    (match flags with [] -> "" | fs -> " " ^ String.concat "," fs)
    (if v.v_pins > 0 then Printf.sprintf " pins=%d" v.v_pins else "")
    (match kind with
    | `Inref ->
        if v.v_visited <> [] then
          Printf.sprintf " visited=%d" (List.length v.v_visited)
        else ""
    | `Outref ->
        if v.v_visited <> [] then
          Printf.sprintf " visited=%d" (List.length v.v_visited)
        else "")

let diff_views ~site ~label ~kind before after acc =
  let tbl = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace tbl v.v_ref (`Old v)) before;
  List.iter
    (fun v ->
      match Hashtbl.find_opt tbl v.v_ref with
      | Some (`Old old) -> Hashtbl.replace tbl v.v_ref (`Both (old, v))
      | _ -> Hashtbl.replace tbl v.v_ref (`New v))
    after;
  Hashtbl.fold
    (fun r state acc ->
      let what = Printf.sprintf "%s %s" label (Oid.to_string r) in
      match state with
      | `Old old ->
          { ch_site = site; ch_what = what;
            ch_before = describe_view ~kind old; ch_after = "(removed)" }
          :: acc
      | `New v ->
          { ch_site = site; ch_what = what; ch_before = "(absent)";
            ch_after = describe_view ~kind v }
          :: acc
      | `Both (old, v) ->
          let b = describe_view ~kind old and a = describe_view ~kind v in
          if b = a && old.v_linked = v.v_linked && old.v_sources = v.v_sources
          then acc
          else
            { ch_site = site; ch_what = what; ch_before = b; ch_after = a }
            :: acc)
    tbl acc

let diff s1 s2 =
  let by_site snap =
    List.map (fun sv -> (Site_id.to_int sv.sv_site, sv)) snap.sites
  in
  let m1 = by_site s1 and m2 = by_site s2 in
  let acc =
    List.fold_left
      (fun acc (i, sv2) ->
        match List.assoc_opt i m1 with
        | None -> acc
        | Some sv1 ->
            let site = sv2.sv_site in
            let acc =
              if sv1.sv_objects <> sv2.sv_objects then
                { ch_site = site; ch_what = "objects";
                  ch_before = string_of_int sv1.sv_objects;
                  ch_after = string_of_int sv2.sv_objects }
                :: acc
              else acc
            in
            let acc =
              if sv1.sv_crashed <> sv2.sv_crashed then
                { ch_site = site; ch_what = "crashed";
                  ch_before = string_of_bool sv1.sv_crashed;
                  ch_after = string_of_bool sv2.sv_crashed }
                :: acc
              else acc
            in
            let acc =
              if sv1.sv_in_window <> sv2.sv_in_window then
                { ch_site = site; ch_what = "in_window";
                  ch_before = string_of_bool sv1.sv_in_window;
                  ch_after = string_of_bool sv2.sv_in_window }
                :: acc
              else acc
            in
            let acc =
              let n1 = List.length sv1.sv_frames
              and n2 = List.length sv2.sv_frames in
              if n1 <> n2 then
                { ch_site = site; ch_what = "frames";
                  ch_before = string_of_int n1; ch_after = string_of_int n2 }
                :: acc
              else acc
            in
            let acc =
              diff_views ~site ~label:"inref" ~kind:`Inref sv1.sv_inrefs
                sv2.sv_inrefs acc
            in
            diff_views ~site ~label:"outref" ~kind:`Outref sv1.sv_outrefs
              sv2.sv_outrefs acc)
      [] m2
  in
  List.sort
    (fun a b ->
      match Site_id.compare a.ch_site b.ch_site with
      | 0 -> String.compare a.ch_what b.ch_what
      | c -> c)
    acc

(* --- printing --------------------------------------------------------- *)

let pp_change ppf c =
  Format.fprintf ppf "%a %-18s %s -> %s" Site_id.pp c.ch_site c.ch_what
    c.ch_before c.ch_after

let pp ppf t =
  Format.fprintf ppf "@[<v>snapshot at %.3fs" (Sim_time.to_seconds t.at);
  List.iter
    (fun sv ->
      Format.fprintf ppf "@,%a: %d objects, %d inrefs, %d outrefs, %d frames%s%s"
        Site_id.pp sv.sv_site sv.sv_objects
        (List.length sv.sv_inrefs)
        (List.length sv.sv_outrefs)
        (List.length sv.sv_frames)
        (if sv.sv_in_window then " [window open]" else "")
        (if sv.sv_crashed then " [crashed]" else "");
      List.iter
        (fun v ->
          Format.fprintf ppf "@,  inref  %-8s %s" (Oid.to_string v.v_ref)
            (describe_view ~kind:`Inref v))
        sv.sv_inrefs;
      List.iter
        (fun v ->
          Format.fprintf ppf "@,  outref %-8s %s" (Oid.to_string v.v_ref)
            (describe_view ~kind:`Outref v))
        sv.sv_outrefs;
      List.iter
        (fun (fi : Back_trace.frame_info) ->
          Format.fprintf ppf "@,  frame #%d %s %a on %s (pending %d)"
            fi.Back_trace.fi_id fi.Back_trace.fi_kind Trace_id.pp
            fi.Back_trace.fi_trace
            (Oid.to_string fi.Back_trace.fi_ioref)
            fi.Back_trace.fi_pending)
        sv.sv_frames)
    t.sites;
  if t.open_spans > 0 then
    Format.fprintf ppf "@,open spans: %d" t.open_spans;
  Format.fprintf ppf "@]"
