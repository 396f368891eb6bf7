type span_id = int

type span = {
  id : span_id;
  parent : span_id option;
  trace : string;
  name : string;
  site : int;
  start : float;
  mutable finish : float option;
  mutable attrs : (string * Json.t) list;
}

type t = {
  mutable rev_spans : span list;  (** newest first *)
  tbl : (span_id, span) Hashtbl.t;
  mutable next : int;
  mutable opened : int;
  mutable dropped : int;
  mutable aborted : int;
  mutable on_start : (span -> unit) option;
  mutable on_finish : (span -> unit) option;
}

let create () =
  {
    rev_spans = [];
    tbl = Hashtbl.create 64;
    next = 0;
    opened = 0;
    dropped = 0;
    aborted = 0;
    on_start = None;
    on_finish = None;
  }

let set_span_hooks t ~on_start ~on_finish =
  t.on_start <- Some on_start;
  t.on_finish <- Some on_finish

let add t sp =
  t.rev_spans <- sp :: t.rev_spans;
  Hashtbl.replace t.tbl sp.id sp

let start_span t ?parent ~trace ~name ~site ~at attrs =
  let id = t.next in
  t.next <- id + 1;
  let sp = { id; parent; trace; name; site; start = at; finish = None; attrs } in
  add t sp;
  t.opened <- t.opened + 1;
  (match t.on_start with Some f -> f sp | None -> ());
  id

let finish_span t id ~at attrs =
  match Hashtbl.find_opt t.tbl id with
  | Some sp when sp.finish = None ->
      sp.finish <- Some at;
      sp.attrs <- sp.attrs @ attrs;
      t.opened <- t.opened - 1;
      (match t.on_finish with Some f -> f sp | None -> ())
  | Some _ | None -> t.dropped <- t.dropped + 1

(* A flight dump must leave no dangling spans: Perfetto renders an
   unfinished slice as zero-width, so the open ones are closed with a
   synthetic end carrying the [aborted] mark. *)
let abort_open t ~at =
  let n = ref 0 in
  List.iter
    (fun sp ->
      if sp.finish = None then begin
        incr n;
        finish_span t sp.id ~at [ ("aborted", Json.Bool true) ]
      end)
    t.rev_spans;
  t.aborted <- t.aborted + !n;
  !n

let aborted_spans t = t.aborted

let event t ?parent ~trace ~name ~site ~at attrs =
  let id = start_span t ?parent ~trace ~name ~site ~at attrs in
  finish_span t id ~at [];
  id

let find t id = Hashtbl.find_opt t.tbl id
let spans t = List.rev t.rev_spans
let span_count t = List.length t.rev_spans
let open_count t = t.opened
let dropped_finishes t = t.dropped

let open_spans t =
  List.rev (List.filter (fun sp -> sp.finish = None) t.rev_spans)

let pp ppf t =
  Format.fprintf ppf "@[<v>tracer: %d spans, %d open, %d dropped finishes"
    (span_count t) t.opened t.dropped;
  List.iter
    (fun sp ->
      Format.fprintf ppf "@,  open #%d %s %s site=%d since %.3fs" sp.id
        sp.trace sp.name sp.site sp.start)
    (open_spans t);
  Format.fprintf ppf "@]"

(* --- JSONL ------------------------------------------------------------ *)

let span_to_json sp =
  Json.Obj
    [
      ("id", Json.Int sp.id);
      ("parent", match sp.parent with Some p -> Json.Int p | None -> Json.Null);
      ("trace", Json.Str sp.trace);
      ("name", Json.Str sp.name);
      ("site", Json.Int sp.site);
      ("start", Json.Float sp.start);
      ("end", match sp.finish with Some e -> Json.Float e | None -> Json.Null);
      ("attrs", Json.Obj sp.attrs);
    ]

let span_of_json j =
  let ( let* ) = Result.bind in
  let* id = Json.int_field "id" j in
  let* trace = Json.str_field "trace" j in
  let* name = Json.str_field "name" j in
  let* site = Json.int_field "site" j in
  let* start = Json.float_field "start" j in
  let* parent = Json.opt_field Json.int_field "parent" j in
  let* finish = Json.opt_field Json.float_field "end" j in
  let* attrs = Json.opt_field Json.obj_field "attrs" j in
  Ok
    {
      id;
      parent;
      trace;
      name;
      site;
      start;
      finish;
      attrs = Option.value ~default:[] attrs;
    }

let to_jsonl t =
  let b = Buffer.create 4096 in
  List.iter
    (fun sp ->
      Buffer.add_string b (Json.to_string (span_to_json sp));
      Buffer.add_char b '\n')
    (spans t);
  Buffer.contents b

let spans_of_jsonl text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> String.trim l <> "")
  |> Json.list_map (fun line -> Result.bind (Json.parse line) span_of_json)

(* --- Chrome trace-event format ---------------------------------------- *)

let us x = Json.Float (x *. 1e6)

let to_chrome ?(counters = []) t =
  let all = spans t in
  (* One lane (tid) per (site, trace) pair so concurrent traces at a
     site stack instead of overlapping. *)
  let lanes = Hashtbl.create 16 in
  let next_lane = Hashtbl.create 8 in
  let lane_of site trace =
    match Hashtbl.find_opt lanes (site, trace) with
    | Some l -> l
    | None ->
        let l =
          match Hashtbl.find_opt next_lane site with Some n -> n | None -> 0
        in
        Hashtbl.replace next_lane site (l + 1);
        Hashtbl.replace lanes (site, trace) l;
        l
  in
  let sites = Hashtbl.create 8 in
  List.iter (fun sp -> Hashtbl.replace sites sp.site ()) all;
  let meta =
    Hashtbl.fold
      (fun site () acc ->
        Json.Obj
          [
            ("name", Json.Str "process_name");
            ("ph", Json.Str "M");
            ("pid", Json.Int site);
            ("tid", Json.Int 0);
            ("args", Json.Obj [ ("name", Json.Str (Printf.sprintf "site %d" site)) ]);
          ]
        :: acc)
      sites []
    |> List.sort compare
  in
  let lane_meta = ref [] in
  let complete =
    List.map
      (fun sp ->
        let lane = lane_of sp.site sp.trace in
        let dur =
          match sp.finish with Some e -> Float.max 0. (e -. sp.start) | None -> 0.
        in
        let args =
          ("span", Json.Int sp.id)
          :: (match sp.parent with
             | Some p -> [ ("parent", Json.Int p) ]
             | None -> [])
          @ (if sp.finish = None then [ ("open", Json.Bool true) ] else [])
          @ sp.attrs
        in
        Json.Obj
          [
            ("name", Json.Str sp.name);
            ("cat", Json.Str sp.trace);
            ("ph", Json.Str "X");
            ("ts", us sp.start);
            ("dur", us dur);
            ("pid", Json.Int sp.site);
            ("tid", Json.Int lane);
            ("args", Json.Obj args);
          ])
      all
  in
  Hashtbl.iter
    (fun (site, trace) lane ->
      lane_meta :=
        Json.Obj
          [
            ("name", Json.Str "thread_name");
            ("ph", Json.Str "M");
            ("pid", Json.Int site);
            ("tid", Json.Int lane);
            ("args", Json.Obj [ ("name", Json.Str trace) ]);
          ]
        :: !lane_meta)
    lanes;
  (* Cross-site parent links become flow arrows: start on the parent's
     slice, finish on the child's. *)
  let flows =
    List.concat_map
      (fun sp ->
        match sp.parent with
        | None -> []
        | Some pid -> (
            match find t pid with
            | Some parent when parent.site <> sp.site ->
                let common =
                  [
                    ("name", Json.Str "leap");
                    ("cat", Json.Str sp.trace);
                    ("id", Json.Int sp.id);
                  ]
                in
                (* Bind the arrow's tail inside the parent slice. *)
                let tail_ts =
                  match parent.finish with
                  | Some e when e < sp.start -> (parent.start +. e) /. 2.
                  | _ -> Float.max parent.start (sp.start -. 1e-9)
                in
                [
                  Json.Obj
                    (common
                    @ [
                        ("ph", Json.Str "s");
                        ("ts", us tail_ts);
                        ("pid", Json.Int parent.site);
                        ("tid", Json.Int (lane_of parent.site parent.trace));
                      ]);
                  Json.Obj
                    (common
                    @ [
                        ("ph", Json.Str "f");
                        ("bp", Json.Str "e");
                        ("ts", us sp.start);
                        ("pid", Json.Int sp.site);
                        ("tid", Json.Int (lane_of sp.site sp.trace));
                      ]);
                ]
            | _ -> []))
      all
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.Arr
          (meta @ List.sort compare !lane_meta @ complete @ flows @ counters)
      );
      ("displayTimeUnit", Json.Str "ms");
      ( "otherData",
        Json.Obj
          [
            ("spans", Json.Int (span_count t));
            ("open_spans", Json.Int t.opened);
            ("dropped_finishes", Json.Int t.dropped);
            ("aborted_spans", Json.Int t.aborted);
          ] );
    ]
