(* Telemetry: span well-formedness over the Figure-1 scenario,
   histogram percentile math, JSON parsing and the JSONL round-trip,
   and the run-artifact shape. *)

open Dgc_simcore
open Dgc_rts
open Dgc_core
open Dgc_workload
open Dgc_telemetry

let cfg_fast =
  {
    Config.default with
    Config.delta = 3;
    threshold2 = 6;
    threshold_bump = 4;
    trace_duration = Sim_time.zero;
  }

(* --- spans over fig1 --------------------------------------------------- *)

let fig1_tracer () =
  let f = Scenario.fig1 ~cfg:cfg_fast () in
  let sim = f.Scenario.f1_sim in
  let tracer = Tracer.create () in
  Engine.attach_tracer sim.Sim.eng tracer;
  Sim.start sim;
  ignore (Sim.collect_all sim ~max_rounds:30 ());
  tracer

let test_fig1_spans_well_formed () =
  let tracer = fig1_tracer () in
  let spans = Tracer.spans tracer in
  Alcotest.(check bool) "spans recorded" true (List.length spans > 0);
  Alcotest.(check int) "all spans finished" 0 (Tracer.open_count tracer);
  let by_id = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace by_id s.Tracer.id s) spans;
  List.iter
    (fun s ->
      (match s.Tracer.parent with
      | None ->
          Alcotest.(check string)
            "only trace roots lack a parent" "back_trace" s.Tracer.name
      | Some p ->
          let parent =
            match Hashtbl.find_opt by_id p with
            | Some parent -> parent
            | None -> Alcotest.failf "span %d: dangling parent %d" s.Tracer.id p
          in
          Alcotest.(check string)
            "parent and child belong to the same trace" s.Tracer.trace
            parent.Tracer.trace;
          Alcotest.(check bool)
            "child starts no earlier than its parent" true
            (s.Tracer.start >= parent.Tracer.start));
      match s.Tracer.finish with
      | Some e ->
          Alcotest.(check bool) "finish >= start" true (e >= s.Tracer.start)
      | None -> ())
    spans

let test_fig1_spans_cross_sites () =
  let tracer = fig1_tracer () in
  let spans = Tracer.spans tracer in
  let garbage_root =
    List.find_opt
      (fun s ->
        s.Tracer.name = "back_trace"
        && List.assoc_opt "outcome" s.Tracer.attrs = Some (Json.Str "Garbage"))
      spans
  in
  let root =
    match garbage_root with
    | Some r -> r
    | None -> Alcotest.fail "no garbage back_trace root span"
  in
  (* Collect the root's whole subtree and check the trace leaped. *)
  let in_tree = Hashtbl.create 16 in
  Hashtbl.replace in_tree root.Tracer.id ();
  List.iter
    (fun s ->
      match s.Tracer.parent with
      | Some p when Hashtbl.mem in_tree p ->
          Hashtbl.replace in_tree s.Tracer.id ()
      | _ -> ())
    spans;
  let tree = List.filter (fun s -> Hashtbl.mem in_tree s.Tracer.id) spans in
  let sites = List.sort_uniq Int.compare (List.map (fun s -> s.Tracer.site) tree) in
  Alcotest.(check bool)
    "the garbage trace spans at least 2 sites" true (List.length sites >= 2);
  let names = List.sort_uniq String.compare (List.map (fun s -> s.Tracer.name) tree) in
  List.iter
    (fun required ->
      Alcotest.(check bool)
        (Printf.sprintf "tree contains a %s span" required)
        true (List.mem required names))
    [ "back_trace"; "frame.local"; "frame.remote"; "leap.call"; "leap.reply";
      "report" ]

(* --- histogram percentile math ----------------------------------------- *)

(* Every histogram buckets on the default bounds, 1e-6 x 2^i. A
   reported quantile must lie within the observed extremes and in the
   same bucket as the nearest-rank true quantile, so it is off by less
   than 2x. A tighter quantile estimator has this bound to beat. *)
let bucket_of x =
  let rec go i =
    if i >= 48 || x <= 1e-6 *. (2. ** float_of_int i) then i else go (i + 1)
  in
  go 0

let sample_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun u -> 1e-6 *. (10. ** u)) (float_bound_exclusive 14.);
        (* exact bucket edges: an edge belongs to the bucket below *)
        map (fun i -> 1e-6 *. (2. ** float_of_int i)) (int_bound 46);
      ])

let prop_hist_quantiles =
  QCheck2.Test.make ~name:"quantiles in the true bucket"
    ~count:300
    ~print:QCheck2.Print.(list float)
    QCheck2.Gen.(list_size (int_range 1 200) sample_gen)
    (fun xs ->
      let m = Metrics.create () in
      List.iter (Metrics.hist_observe m "x") xs;
      let h = Option.get (Metrics.hist_stats m "x") in
      let sorted = Array.of_list (List.sort Float.compare xs) in
      let n = Array.length sorted in
      let nearest_rank q =
        sorted.(max 1 (int_of_float (ceil (q *. float_of_int n))) - 1)
      in
      h.Metrics.n = n
      && h.Metrics.sum = List.fold_left ( +. ) 0. xs
      && h.Metrics.min = sorted.(0)
      && h.Metrics.max = sorted.(n - 1)
      && List.for_all
           (fun (q, est) ->
             h.Metrics.min <= est && est <= h.Metrics.max
             && bucket_of est = bucket_of (nearest_rank q))
           [ (0.5, h.Metrics.p50); (0.95, h.Metrics.p95); (0.99, h.Metrics.p99) ])

let test_hist_single_sample () =
  let m = Metrics.create () in
  Metrics.hist_observe m "one" 42.;
  match Metrics.hist_stats m "one" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      List.iter
        (fun (what, v) -> Alcotest.(check (float 1e-9)) what 42. v)
        [
          ("p50", h.Metrics.p50);
          ("p95", h.Metrics.p95);
          ("p99", h.Metrics.p99);
          ("min", h.Metrics.min);
          ("max", h.Metrics.max);
        ]

(* --- JSON and the JSONL round-trip ------------------------------------- *)

let test_json_round_trip () =
  let j =
    Json.Obj
      [
        ("a", Json.Int 3);
        ("b", Json.Float 1.5);
        ("s", Json.Str "x\"y\n\\z");
        ("l", Json.Arr [ Json.Bool true; Json.Null ]);
        ("o", Json.Obj [ ("nested", Json.Str "✓ utf8") ]);
      ]
  in
  match Json.parse (Json.to_string j) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j' ->
      Alcotest.(check string)
        "print-parse-print is stable" (Json.to_string j) (Json.to_string j')

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "parser accepted %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

let golden_jsonl =
  {|{"id":0,"parent":null,"trace":"T0.0","name":"back_trace","site":0,"start":1.5,"end":2.25,"attrs":{"root":"S0/o1"}}
{"id":1,"parent":0,"trace":"T0.0","name":"frame.local","site":0,"start":1.5,"end":2.0,"attrs":{"verdict":"Garbage"}}
{"id":2,"parent":1,"trace":"T0.0","name":"leap.call","site":1,"start":1.625,"end":1.75,"attrs":{}}|}

let test_jsonl_round_trip () =
  let tracer = Tracer.create () in
  let root =
    Tracer.start_span tracer ~trace:"T0.0" ~name:"back_trace" ~site:0 ~at:1.5
      [ ("root", Json.Str "S0/o1") ]
  in
  let fr =
    Tracer.start_span tracer ~parent:root ~trace:"T0.0" ~name:"frame.local"
      ~site:0 ~at:1.5 []
  in
  let leap =
    Tracer.start_span tracer ~parent:fr ~trace:"T0.0" ~name:"leap.call"
      ~site:1 ~at:1.625 []
  in
  Tracer.finish_span tracer leap ~at:1.75 [];
  Tracer.finish_span tracer fr ~at:2. [ ("verdict", Json.Str "Garbage") ];
  Tracer.finish_span tracer root ~at:2.25 [];
  let out = Tracer.to_jsonl tracer in
  Alcotest.(check string) "golden JSONL" golden_jsonl (String.trim out);
  match Tracer.spans_of_jsonl out with
  | Error e -> Alcotest.failf "re-import failed: %s" e
  | Ok spans ->
      Alcotest.(check int) "span count survives" 3 (List.length spans);
      let reprint =
        String.concat "\n"
          (List.map (fun s -> Json.to_string (Tracer.span_to_json s)) spans)
      in
      Alcotest.(check string) "round-trip is lossless" golden_jsonl reprint

(* --- time series ------------------------------------------------------- *)

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_series_counters_and_gauges () =
  let s = Series.create ~window:1.0 () in
  Series.add s "msgs" ~at:0.2 2;
  Series.incr s "msgs" ~at:0.9;
  Series.add s "msgs" ~at:2.4 5;
  Series.set s "depth" ~at:0.5 3.;
  Series.set s "depth" ~at:0.7 4.;
  Series.set s "depth" ~at:5.0 1.;
  Alcotest.(check (list (pair string string)))
    "names sorted with kinds"
    [ ("depth", "gauge"); ("msgs", "counter") ]
    (List.map
       (fun (n, k) ->
         (n, match k with Series.Counter -> "counter" | Series.Gauge -> "gauge"))
       (Series.names s));
  Alcotest.(check (list (pair (float 0.) (float 0.))))
    "counter buckets sum per window"
    [ (0., 3.); (2., 5.) ]
    (Series.points s "msgs");
  Alcotest.(check (list (pair (float 0.) (float 0.))))
    "gauge buckets keep the last write"
    [ (0., 4.); (5., 1.) ]
    (Series.points s "depth");
  Alcotest.(check (float 0.)) "counter total" 8. (Series.total s "msgs");
  Alcotest.(check (float 0.)) "gauge total is the last value" 1.
    (Series.total s "depth");
  Alcotest.(check (float 0.)) "unknown name totals 0" 0. (Series.total s "nope");
  (match Series.set s "msgs" ~at:3. 1. with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "gauge write on a counter accepted");
  match Series.add s "depth" ~at:3. 1 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "counter write on a gauge accepted"

let test_series_bucket_eviction () =
  let s = Series.create ~window:1.0 ~max_buckets:4 () in
  for i = 0 to 9 do
    Series.add s "c" ~at:(float_of_int i) 1
  done;
  Alcotest.(check int) "evicted buckets counted" 6 (Series.evicted s "c");
  Alcotest.(check (list (pair (float 0.) (float 0.))))
    "only the newest buckets retained"
    [ (6., 1.); (7., 1.); (8., 1.); (9., 1.) ]
    (Series.points s "c");
  Alcotest.(check (float 0.)) "total still covers evicted buckets" 10.
    (Series.total s "c")

let test_series_exports () =
  let s = Series.create () in
  Series.add s "back.msgs" ~at:0.5 3;
  Series.set s "bytes_resident{site=2}" ~at:1.5 4096.;
  let prom = Series.to_prom s in
  let has sub = contains_sub ~sub prom in
  Alcotest.(check bool) "counter family typed" true
    (has "# TYPE dgc_back_msgs counter");
  Alcotest.(check bool) "counter exposes the total" true (has "dgc_back_msgs 3");
  Alcotest.(check bool) "site suffix becomes a label" true
    (has "dgc_bytes_resident{site=\"2\"} 4096");
  let counters = Series.chrome_counters s in
  Alcotest.(check int) "one counter event per point" 2 (List.length counters);
  let pid_of j = Option.bind (Json.member "pid" j) Json.to_int_opt in
  Alcotest.(check bool) "labelled series land on their site's pid" true
    (List.exists (fun j -> pid_of j = Some 2) counters);
  (match Series.validate (Series.to_json s) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "validate: %s" e);
  (* Survives printing and parsing byte-identically. *)
  let str = Json.to_string (Series.to_json s) in
  match Json.parse str with
  | Error e -> Alcotest.failf "series reparse: %s" e
  | Ok j ->
      Alcotest.(check string) "print-parse-print stable" str (Json.to_string j);
      List.iter
        (fun (what, doc) ->
          match Series.validate doc with
          | Ok () -> Alcotest.failf "accepted %s" what
          | Error _ -> ())
        [
          ("non-object", Json.Int 1);
          ("missing window", Json.Obj [ ("series", Json.Obj []) ]);
          ( "bad kind",
            Json.Obj
              [
                ("window", Json.Float 1.);
                ( "series",
                  Json.Obj
                    [
                      ( "x",
                        Json.Obj
                          [
                            ("kind", Json.Str "dial");
                            ("n", Json.Int 0);
                            ("max", Json.Float 0.);
                            ("last", Json.Float 0.);
                            ("total", Json.Float 0.);
                            ("points", Json.Arr []);
                          ] );
                    ] );
              ] );
        ]

(* Strict text-format escaping: label values escape exactly backslash,
   double quote and newline; label names are forced into
   [a-zA-Z_][a-zA-Z0-9_]*. The parse-back half walks the exposition
   line with the official unescaping rules and must recover the
   original value byte-for-byte. *)
let test_series_prom_escaping () =
  let s = Series.create () in
  let original = "a\\b\"c\nd" in
  Series.add s ("evt{msg=" ^ original ^ "}") ~at:0.5 2;
  Series.set s "gauge{9bad-name=x}" ~at:1.0 7.;
  let prom = Series.to_prom s in
  Alcotest.(check bool) "value escaped per the text format" true
    (contains_sub ~sub:"dgc_evt{msg=\"a\\\\b\\\"c\\nd\"} 2" prom);
  Alcotest.(check bool) "label name sanitized and digit-prefixed" true
    (contains_sub ~sub:"dgc_gauge{_9bad_name=\"x\"} 7" prom);
  (* No exposition line may contain a raw (unescaped) newline: every
     line must be a comment, blank, or metric sample. *)
  List.iter
    (fun line ->
      if line <> "" && not (String.starts_with ~prefix:"#" line) then
        Alcotest.(check bool)
          (Printf.sprintf "sample line well-formed: %s" line)
          true
          (String.starts_with ~prefix:"dgc_" line))
    (String.split_on_char '\n' prom);
  (* Parse back: unescape the quoted label value. *)
  let prefix = "dgc_evt{msg=\"" in
  let line =
    List.find
      (String.starts_with ~prefix)
      (String.split_on_char '\n' prom)
  in
  let buf = Buffer.create 16 in
  let rec go i =
    match line.[i] with
    | '"' -> ()
    | '\\' ->
        (match line.[i + 1] with
        | 'n' -> Buffer.add_char buf '\n'
        | c -> Buffer.add_char buf c);
        go (i + 2)
    | c ->
        Buffer.add_char buf c;
        go (i + 1)
  in
  go (String.length prefix);
  Alcotest.(check string) "round-trips through the exposition format"
    original (Buffer.contents buf)

(* --- handles ----------------------------------------------------------- *)

(* A hot path resolves its metric once, on first record. A handle that
   is never forced registers nothing, and a forced handle and the
   string call on the same name record into one entry. *)
let test_handles_share_entries () =
  let m = Metrics.create () and s = Series.create () in
  Metrics.incr m "seen";
  Metrics.hist_observe m "h.seen" 1.;
  Series.set s "g.seen" ~at:0. 1.;
  let counters = Metrics.counters m
  and hists = List.map fst (Metrics.hists m)
  and names = Series.names s in
  let unused_counter = lazy (Metrics.counter_ref m "unused")
  and unused_hist = lazy (Metrics.hist_ref m "h.unused")
  and unused_series =
    lazy (Series.series_ref s "g.unused" ~kind:Series.Gauge)
  in
  ignore (unused_counter, unused_hist, unused_series);
  Alcotest.(check (list (pair string int)))
    "an unforced counter handle registers nothing" counters
    (Metrics.counters m);
  Alcotest.(check (list string))
    "an unforced histogram handle registers nothing" hists
    (List.map fst (Metrics.hists m));
  Alcotest.(check bool) "an unforced series handle registers nothing" true
    (names = Series.names s);
  let c = Metrics.counter_ref m "seen" in
  incr c;
  Metrics.add m "seen" 2;
  incr c;
  Alcotest.(check int) "handle and string call share one counter" 5
    (Metrics.get m "seen");
  Alcotest.(check int) "no second entry" (List.length counters)
    (List.length (Metrics.counters m));
  Metrics.observe (Metrics.hist_ref m "h.seen") 3.;
  (match Metrics.hist_stats m "h.seen" with
  | Some st ->
      Alcotest.(check int) "handle and string call share one histogram" 2
        st.Metrics.n
  | None -> Alcotest.fail "h.seen vanished");
  Series.add_to (Series.series_ref s "c.seen" ~kind:Series.Counter) ~at:0. 2;
  Series.add s "c.seen" ~at:1.5 3;
  Alcotest.(check (float 0.)) "handle and string call share one series" 5.
    (Series.total s "c.seen");
  Alcotest.(check (list (pair (float 0.) (float 0.)))) "bucketed alike"
    [ (0., 2.); (1., 3.) ] (Series.points s "c.seen")

(* --- run artifact ------------------------------------------------------ *)

let test_artifact_shape () =
  let m = Metrics.create () in
  Metrics.incr m "msg.total";
  Metrics.add m "back.msgs" 7;
  Metrics.hist_observe m "back.latency_ms" 12.;
  Metrics.hist_observe m "back.latency_ms" 30.;
  let art = Run_artifact.make ~name:"unit" ~sim_seconds:60. m in
  (match
     Run_artifact.validate ~require_hists:[ "back.latency_ms" ]
       ~require_counter_prefixes:[ "msg."; "back." ]
       art
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "validate: %s" e);
  (* Survives printing and parsing. *)
  match Json.parse (Json.to_string art) with
  | Error e -> Alcotest.failf "artifact reparse: %s" e
  | Ok art' -> (
      match Run_artifact.validate art' with
      | Ok () -> ()
      | Error e -> Alcotest.failf "reparsed validate: %s" e)

let test_artifact_with_series () =
  let m = Metrics.create () in
  Metrics.incr m "msg.total";
  let s = Series.create () in
  Series.add s "back.in_flight" ~at:0.5 1;
  Series.set s "bytes_resident{site=0}" ~at:1.0 512.;
  let art = Run_artifact.make ~name:"unit" ~sim_seconds:60. ~series:s m in
  (match Run_artifact.validate art with
  | Ok () -> ()
  | Error e -> Alcotest.failf "validate: %s" e);
  (match Run_artifact.series_section art with
  | Some sec -> (
      match Series.validate sec with
      | Ok () -> ()
      | Error e -> Alcotest.failf "series section: %s" e)
  | None -> Alcotest.fail "series section missing");
  (* A corrupted series section must fail artifact validation. *)
  let corrupt =
    match art with
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (fun (k, v) -> if k = "series" then (k, Json.Int 3) else (k, v))
             fields)
    | j -> j
  in
  match Run_artifact.validate corrupt with
  | Ok () -> Alcotest.fail "corrupted series section accepted"
  | Error _ -> ()

let test_artifact_rejects_bad () =
  List.iter
    (fun (what, j) ->
      match Run_artifact.validate j with
      | Ok () -> Alcotest.failf "accepted %s" what
      | Error _ -> ())
    [
      ("non-object", Json.Int 3);
      ("missing schema", Json.Obj [ ("name", Json.Str "x") ]);
      ( "bad counters",
        Json.Obj
          [
            ("schema", Json.Str Run_artifact.schema);
            ("name", Json.Str "x");
            ("sim_seconds", Json.Float 1.);
            ("counters", Json.Obj [ ("c", Json.Str "NaN") ]);
            ("histograms", Json.Obj []);
          ] );
    ]

let () =
  Alcotest.run "telemetry"
    [
      ( "spans",
        [
          Alcotest.test_case "fig1 spans are well-formed" `Quick
            test_fig1_spans_well_formed;
          Alcotest.test_case "fig1 garbage trace crosses sites" `Quick
            test_fig1_spans_cross_sites;
        ] );
      ( "histograms",
        [
          QCheck_alcotest.to_alcotest prop_hist_quantiles;
          Alcotest.test_case "single sample" `Quick test_hist_single_sample;
        ] );
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_round_trip;
          Alcotest.test_case "rejects malformed input" `Quick
            test_json_rejects_garbage;
          Alcotest.test_case "golden JSONL round-trip" `Quick
            test_jsonl_round_trip;
        ] );
      ( "series",
        [
          Alcotest.test_case "counters and gauges" `Quick
            test_series_counters_and_gauges;
          Alcotest.test_case "bucket eviction" `Quick
            test_series_bucket_eviction;
          Alcotest.test_case "prom, chrome and json exports" `Quick
            test_series_exports;
          Alcotest.test_case "strict prom escaping round-trips" `Quick
            test_series_prom_escaping;
        ] );
      ( "handles",
        [
          Alcotest.test_case "resolved once, registered on first record"
            `Quick test_handles_share_entries;
        ] );
      ( "artifact",
        [
          Alcotest.test_case "shape validates and reparses" `Quick
            test_artifact_shape;
          Alcotest.test_case "carries a series section" `Quick
            test_artifact_with_series;
          Alcotest.test_case "rejects malformed artifacts" `Quick
            test_artifact_rejects_bad;
        ] );
    ]
