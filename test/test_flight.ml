(* The flight recorder: ring semantics (eviction, payload clamping,
   out-of-range sites), the strict byte-identical dgc.flight/1 round
   trip and its rejection paths, engine integration (always-on via
   Sim.make, open spans aborted on dump, schedule neutrality) and the
   chaos tie-in: a failing corpus replay emits a bit-deterministic
   flight dump containing the causally-relevant events. *)

open Dgc_prelude
open Dgc_simcore
open Dgc_rts
open Dgc_core
open Dgc_workload
open Dgc_telemetry
module Campaign = Dgc_chaos.Campaign
module Plan = Dgc_chaos.Plan

let cfg_fast =
  {
    Config.default with
    Config.delta = 3;
    threshold2 = 6;
    threshold_bump = 4;
    trace_duration = Sim_time.zero;
  }

(* --- ring semantics ---------------------------------------------------- *)

let test_record_decode () =
  let f = Flight.create ~n_sites:2 () in
  Flight.record f ~site:0 ~at:1.0 ~kind:Flight.Send ~a:0 ~b:1 ~tag:"update" ();
  Flight.record f ~site:1 ~at:1.5 ~kind:Flight.Deliver ~a:0 ~b:1 ~tag:"update"
    ~payload:"m7" ();
  Flight.record f ~site:(-1) ~at:2.0 ~kind:Flight.Fault ~tag:"crash"
    ~payload:"2" ();
  Flight.record f ~site:9 ~at:3.0 ~kind:Flight.Timer ();
  Alcotest.(check int) "out-of-range site ignored" 0 (Flight.written f ~site:9);
  let d = Flight.dump f ~reason:"unit" ~at:2.5 in
  Alcotest.(check string) "reason" "unit" (Flight.reason d);
  Alcotest.(check (float 0.)) "dump_at" 2.5 (Flight.dump_at d);
  Alcotest.(check (list int)) "sites, global first" [ -1; 0; 1 ]
    (Flight.sites d);
  (match Flight.events d ~site:0 with
  | [ ev ] ->
      Alcotest.(check string) "kind" "send" (Flight.kind_name ev.Flight.ev_kind);
      Alcotest.(check int) "a" 0 ev.Flight.ev_a;
      Alcotest.(check int) "b" 1 ev.Flight.ev_b;
      Alcotest.(check string) "tag" "update" ev.Flight.ev_tag;
      Alcotest.(check (float 0.)) "at" 1.0 ev.Flight.ev_at
  | evs -> Alcotest.failf "site 0: %d events" (List.length evs));
  (match Flight.events d ~site:1 with
  | [ ev ] ->
      Alcotest.(check string) "payload" "m7" ev.Flight.ev_payload
  | evs -> Alcotest.failf "site 1: %d events" (List.length evs));
  (match Flight.events d ~site:(-1) with
  | [ ev ] ->
      Alcotest.(check string) "kind" "fault"
        (Flight.kind_name ev.Flight.ev_kind);
      Alcotest.(check string) "payload" "2" ev.Flight.ev_payload;
      Alcotest.(check int) "a defaults to -1" (-1) ev.Flight.ev_a
  | evs -> Alcotest.failf "global ring: %d events" (List.length evs));
  Alcotest.(check int) "absent site decodes empty" 0
    (List.length (Flight.events d ~site:5))

let test_eviction_keeps_newest () =
  (* 1024 is the minimum capacity (anything smaller is rejected); each
     record here is 2 + 21 + 4 = 27 bytes, so 200 records overflow. *)
  (match Flight.create ~capacity:16 ~n_sites:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "sub-minimum capacity accepted");
  let f = Flight.create ~capacity:1024 ~n_sites:1 () in
  Alcotest.(check int) "capacity as requested" 1024 (Flight.capacity f);
  for i = 0 to 199 do
    Flight.record f ~site:0 ~at:(float_of_int i) ~kind:Flight.Timer ~a:i
      ~tag:"tick" ()
  done;
  let written = Flight.written f ~site:0
  and evicted = Flight.evicted f ~site:0 in
  Alcotest.(check int) "written counts evicted records too" 200 written;
  Alcotest.(check bool) "ring overflowed" true (evicted > 0);
  let evs = Flight.events (Flight.dump f ~reason:"evict" ~at:200.) ~site:0 in
  Alcotest.(check int) "live records = written - evicted" (written - evicted)
    (List.length evs);
  (match evs with
  | first :: _ ->
      Alcotest.(check int) "oldest survivor sits at the eviction edge" evicted
        first.Flight.ev_a
  | [] -> Alcotest.fail "no events survived");
  let last = List.nth evs (List.length evs - 1) in
  Alcotest.(check int) "newest record always retained" 199 last.Flight.ev_a

let test_payload_clamp () =
  let f = Flight.create ~n_sites:1 () in
  Flight.record f ~site:0 ~at:0. ~kind:Flight.Journal ~tag:"note"
    ~payload:(String.make 400 'x') ();
  match Flight.events (Flight.dump f ~reason:"clamp" ~at:0.) ~site:0 with
  | [ ev ] ->
      Alcotest.(check int) "payload clamped to 255" 255
        (String.length ev.Flight.ev_payload);
      Alcotest.(check string) "clamp keeps the prefix" (String.make 255 'x')
        ev.Flight.ev_payload
  | evs -> Alcotest.failf "expected one event, got %d" (List.length evs)

(* --- dgc.flight/1 round trip ------------------------------------------- *)

let kinds =
  [|
    Flight.Send;
    Flight.Deliver;
    Flight.Drop;
    Flight.Fault;
    Flight.Journal;
    Flight.Span_start;
    Flight.Span_end;
    Flight.Timer;
  |]

let test_random_round_trip () =
  let rng = Rng.create ~seed:42 in
  for _trial = 1 to 40 do
    let n_sites = 1 + Rng.int rng 3 in
    let f = Flight.create ~capacity:(1024 * (1 + Rng.int rng 2)) ~n_sites () in
    for _ = 1 to Rng.int rng 120 do
      let payload =
        String.init (Rng.int rng 12) (fun _ -> Char.chr (Rng.int_in rng 32 126))
      in
      Flight.record f
        ~site:(Rng.int_in rng (-1) (n_sites - 1))
        ~at:(Rng.float rng 100.) ~kind:(Rng.choose_arr rng kinds)
        ~a:(Rng.int_in rng (-2) 1_000_000)
        ~b:(Rng.int_in rng (-2) 1_000_000)
        ~tag:(Rng.choose rng [ ""; "update"; "back"; "crash"; "t" ])
        ~payload ()
    done;
    let d = Flight.dump f ~reason:"fuzz" ~at:101. in
    let s = Json.to_string (Flight.to_json d) in
    let reparsed =
      match Json.parse s with
      | Ok j -> j
      | Error e -> Alcotest.failf "reparse: %s" e
    in
    match Flight.of_json reparsed with
    | Error e -> Alcotest.failf "of_json rejected its own dump: %s" e
    | Ok d' ->
        Alcotest.(check string) "byte-identical re-serialization" s
          (Json.to_string (Flight.to_json d'));
        List.iter
          (fun site ->
            Alcotest.(check int)
              (Printf.sprintf "site %d event count" site)
              (List.length (Flight.events d ~site))
              (List.length (Flight.events d' ~site)))
          (Flight.sites d)
  done

(* --- growth against a fixed ring ----------------------------------------- *)

(* The reference: every ring a buffer allocated at full capacity up
   front, written in the documented frame layout. The recorder's rings
   start empty and grow; at every point they must dump the same
   document (intern table, live bytes, counters) as this one. *)
module Fixed = struct
  type ring = {
    data : Bytes.t;
    mutable head : int;
    mutable used : int;
    mutable written : int;
    mutable evicted : int;
  }

  type t = {
    cap : int;
    rings : ring array;  (** index 0 = global ring *)
    intern : (string, int) Hashtbl.t;
    mutable strings : string list;  (** newest first *)
  }

  let create ~capacity ~n_sites =
    {
      cap = capacity;
      rings =
        Array.init (n_sites + 1) (fun _ ->
            {
              data = Bytes.create capacity;
              head = 0;
              used = 0;
              written = 0;
              evicted = 0;
            });
      intern = Hashtbl.create 8;
      strings = [];
    }

  let intern t s =
    match Hashtbl.find_opt t.intern s with
    | Some i -> i
    | None ->
        let i = Hashtbl.length t.intern in
        Hashtbl.add t.intern s i;
        t.strings <- s :: t.strings;
        i

  let frame t ~at ~kind ~a ~b ~tag ~payload =
    let plen = min 255 (String.length payload) in
    let f = Bytes.create (2 + 21 + plen) in
    Bytes.set_uint16_le f 0 (21 + plen);
    Bytes.set_uint8 f 2 kind;
    Bytes.set_uint16_le f 3 (intern t tag);
    Bytes.set_int32_le f 5 (Int32.of_int a);
    Bytes.set_int32_le f 9 (Int32.of_int b);
    Bytes.set_int64_le f 13 (Int64.bits_of_float at);
    Bytes.set_uint16_le f 21 plen;
    Bytes.blit_string payload 0 f 23 plen;
    f

  let byte t r i = Bytes.get_uint8 r.data ((r.head + i) mod t.cap)

  let record t ~site ~at ~kind ~a ~b ~tag ~payload =
    if site >= -1 && site < Array.length t.rings - 1 then begin
      ignore (intern t "");
      let f = frame t ~at ~kind ~a ~b ~tag ~payload in
      let r = t.rings.(site + 1) in
      let sz = Bytes.length f in
      while t.cap - r.used < sz do
        let old = 2 + byte t r 0 + (byte t r 1 lsl 8) in
        r.head <- (r.head + old) mod t.cap;
        r.used <- r.used - old;
        r.evicted <- r.evicted + 1
      done;
      Bytes.iteri
        (fun i c -> Bytes.set r.data ((r.head + r.used + i) mod t.cap) c)
        f;
      r.used <- r.used + sz;
      r.written <- r.written + 1
    end

  let to_json t ~reason ~at =
    Json.Obj
      [
        ("schema", Json.Str Flight.schema);
        ("reason", Json.Str reason);
        ("at", Json.Float at);
        ("capacity", Json.Int t.cap);
        ( "strings",
          Json.Arr (List.rev_map (fun s -> Json.Str s) t.strings) );
        ( "rings",
          Json.Arr
            (Array.to_list
               (Array.mapi
                  (fun i r ->
                    Json.Obj
                      [
                        ("site", Json.Int (i - 1));
                        ("written", Json.Int r.written);
                        ("evicted", Json.Int r.evicted);
                        ( "data",
                          Json.Str
                            (String.concat ""
                               (List.init r.used (fun j ->
                                    Printf.sprintf "%02x" (byte t r j)))) );
                      ])
                  t.rings)) );
      ]
end

let prop_growth_matches_fixed_ring =
  QCheck2.Test.make ~name:"growing rings dump as fixed rings" ~count:30
    ~print:QCheck2.Print.int
    QCheck2.Gen.(1 -- 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let n_sites = 1 + Rng.int rng 3 in
      let capacity = Rng.choose rng [ 1024; 4096 ] in
      let f = Flight.create ~capacity ~n_sites ()
      and r = Fixed.create ~capacity ~n_sites in
      let same at =
        Json.to_string (Flight.to_json (Flight.dump f ~reason:"grow" ~at))
        = Json.to_string (Fixed.to_json r ~reason:"grow" ~at)
        && List.for_all
             (fun site ->
               let ring = r.Fixed.rings.(site + 1) in
               Flight.written f ~site = ring.Fixed.written
               && Flight.evicted f ~site = ring.Fixed.evicted)
             (List.init (n_sites + 1) (fun i -> i - 1))
      in
      (* Enough records to wrap every ring several times. *)
      let n = 200 + Rng.int rng 600 in
      let ok = ref true in
      for i = 1 to n do
        let at = float_of_int i in
        let site = Rng.int_in rng (-1) n_sites in
        let kind = Rng.int rng (Array.length kinds) in
        let a = Rng.int_in rng (-2) 1_000_000
        and b = Rng.int_in rng (-2) 1_000_000
        and tag = Rng.choose rng [ ""; "update"; "back"; "crash" ]
        and payload = String.make (Rng.int_in rng 0 255) 'p' in
        Flight.record f ~site ~at ~kind:kinds.(kind) ~a ~b ~tag ~payload ();
        Fixed.record r ~site ~at ~kind:(kind + 1) ~a ~b ~tag ~payload;
        (* Often while the rings grow, then every 100 records. *)
        if i land (i - 1) = 0 || i mod 100 = 0 then ok := !ok && same at
      done;
      !ok && same (float_of_int n))

(* --- rejection of malformed documents ---------------------------------- *)

let base_doc () =
  let f = Flight.create ~n_sites:1 () in
  Flight.record f ~site:0 ~at:1.0 ~kind:Flight.Send ~a:0 ~b:1 ~tag:"update"
    ~payload:"hi" ();
  Flight.to_json (Flight.dump f ~reason:"mut" ~at:1.0)

let map_field name fn = function
  | Json.Obj fields ->
      Json.Obj
        (List.map (fun (k, v) -> if k = name then (k, fn v) else (k, v)) fields)
  | j -> j

let map_ring_data fn doc =
  map_field "rings"
    (function
      | Json.Arr rings ->
          Json.Arr
            (List.map
               (map_field "data" (function
                 | Json.Str s -> Json.Str (fn s)
                 | v -> v))
               rings)
      | v -> v)
    doc

let expect_reject name doc =
  match Flight.of_json doc with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: malformed document accepted" name

let test_rejections () =
  let doc = base_doc () in
  (match Flight.of_json doc with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "pristine document rejected: %s" e);
  (* The global ring is empty; mutate only non-empty hex payloads. *)
  let nonempty fn s = if s = "" then s else fn s in
  expect_reject "truncated frame"
    (map_ring_data (nonempty (fun s -> String.sub s 0 (String.length s - 2))) doc);
  expect_reject "odd-length hex" (map_ring_data (nonempty (fun s -> s ^ "0")) doc);
  expect_reject "garbage hex"
    (map_ring_data
       (nonempty (fun s -> "zz" ^ String.sub s 2 (String.length s - 2)))
       doc);
  expect_reject "uppercase hex is not canonical"
    (map_ring_data (nonempty String.uppercase_ascii) doc);
  (* Hand-built frames: u16 length prefix (21 = 0x15), then the 21-byte
     body: kind, u16 tag, i32 a, i32 b, f64 at, u16 plen. *)
  let frame ~kind ~tag_id =
    Printf.sprintf "1500%02x%02x%02x" kind (tag_id land 0xff) (tag_id lsr 8)
    ^ "ffffffff" ^ "ffffffff" ^ "0000000000000000" ^ "0000"
  in
  expect_reject "unknown record kind"
    (map_ring_data (nonempty (fun _ -> frame ~kind:9 ~tag_id:0)) doc);
  expect_reject "dangling string id"
    (map_ring_data (nonempty (fun _ -> frame ~kind:1 ~tag_id:99)) doc);
  expect_reject "length prefix overruns the ring"
    (map_ring_data (nonempty (fun s -> s ^ "ff00")) doc);
  expect_reject "body shorter than the header"
    (map_ring_data (nonempty (fun _ -> "0400" ^ "01020304")) doc);
  let bad_plen =
    "1500" ^ "01" ^ "0000" ^ "ffffffff" ^ "ffffffff" ^ "0000000000000000"
    ^ "0200"
  in
  expect_reject "plen disagrees with the frame length"
    (map_ring_data (nonempty (fun _ -> bad_plen)) doc);
  expect_reject "wrong schema"
    (map_field "schema" (fun _ -> Json.Str "dgc.run/1") doc);
  expect_reject "not an object" (Json.Str "flight")

(* --- engine integration ------------------------------------------------ *)

let test_engine_dump_round_trip () =
  (* Sim.make attaches a recorder whenever cfg.flight_capacity > 0 (the
     default): a plain fig1 run must already be fully instrumented. *)
  let f = Scenario.fig1 ~cfg:cfg_fast () in
  let sim = f.Scenario.f1_sim in
  let eng = sim.Sim.eng in
  Engine.attach_journal eng (Journal.create ());
  Engine.attach_tracer eng (Tracer.create ());
  Sim.start sim;
  ignore (Sim.collect_all sim ~max_rounds:30 ());
  Engine.jlog eng ~cat:"test" "about to dump";
  let j =
    match Engine.dump_flight eng ~reason:"test: fig1" with
    | Some j -> j
    | None -> Alcotest.fail "default config did not attach a flight recorder"
  in
  let s = Json.to_string j in
  let d =
    match Flight.of_json j with
    | Ok d -> d
    | Error e -> Alcotest.failf "engine dump rejected: %s" e
  in
  Alcotest.(check string) "engine dump re-serializes byte-identically" s
    (Json.to_string (Flight.to_json d));
  Alcotest.(check string) "reason" "test: fig1" (Flight.reason d);
  let all = List.concat_map (fun site -> Flight.events d ~site) (Flight.sites d) in
  let has k = List.exists (fun e -> e.Flight.ev_kind = k) all in
  Alcotest.(check bool) "sends recorded" true (has Flight.Send);
  Alcotest.(check bool) "delivers recorded" true (has Flight.Deliver);
  Alcotest.(check bool) "journal mirrored into the global ring" true
    (List.exists
       (fun e -> e.Flight.ev_kind = Flight.Journal)
       (Flight.events d ~site:(-1)));
  Alcotest.(check bool) "span starts mirrored" true (has Flight.Span_start);
  Alcotest.(check bool) "span ends mirrored" true (has Flight.Span_end)

let test_second_journal_subscriber () =
  (* Subscribers coexist: a second journal listener on a recording
     engine hears every entry, and the recorder's own journal mirror
     keeps working next to it. *)
  let f = Scenario.fig1 ~cfg:cfg_fast () in
  let sim = f.Scenario.f1_sim in
  let eng = sim.Sim.eng in
  let journal = Journal.create ~capacity:65536 () in
  Engine.attach_journal eng journal;
  let heard = ref [] in
  Engine.subscribe eng (function
    | Engine.Journal e -> heard := e :: !heard
    | _ -> ());
  Sim.start sim;
  ignore (Sim.collect_all sim ~max_rounds:30 ());
  Engine.jlog eng ~cat:"test" "about to dump";
  Alcotest.(check bool) "the run journaled" true
    (List.length (Journal.entries journal) > 1);
  Alcotest.(check bool) "the listener heard every entry, in order" true
    (List.rev !heard = Journal.entries journal);
  match Engine.dump_flight eng ~reason:"two journal subscribers" with
  | None -> Alcotest.fail "default config did not attach a flight recorder"
  | Some j -> (
      match Flight.of_json j with
      | Error e -> Alcotest.failf "dump rejected: %s" e
      | Ok d ->
          Alcotest.(check bool) "journal still mirrored into the flight" true
            (List.exists
               (fun e -> e.Flight.ev_kind = Flight.Journal)
               (Flight.events d ~site:(-1))))

let test_dump_aborts_open_spans () =
  let f = Scenario.fig1 ~cfg:cfg_fast () in
  let sim = f.Scenario.f1_sim in
  let eng = sim.Sim.eng in
  let tracer = Tracer.create () in
  Engine.attach_tracer eng tracer;
  let _id = Tracer.start_span tracer ~trace:"t0" ~name:"manual" ~site:0 ~at:0.0 [] in
  Alcotest.(check int) "span is open before the dump" 1
    (Tracer.open_count tracer);
  (match Engine.dump_flight eng ~reason:"abort test" with
  | None -> Alcotest.fail "no recorder attached"
  | Some j -> (
      match Flight.of_json j with
      | Error e -> Alcotest.failf "dump rejected: %s" e
      | Ok d ->
          let ends =
            List.filter
              (fun e -> e.Flight.ev_kind = Flight.Span_end)
              (Flight.events d ~site:0)
          in
          Alcotest.(check bool) "aborted end edge (b=1) is in the dump" true
            (List.exists (fun e -> e.Flight.ev_b = 1) ends)));
  Alcotest.(check int) "the open span was aborted" 0 (Tracer.open_count tracer);
  Alcotest.(check int) "aborted_spans" 1 (Tracer.aborted_spans tracer);
  Alcotest.(check int) "tracer.aborted_spans metric" 1
    (Metrics.get (Engine.metrics eng) "tracer.aborted_spans")

(* --- chaos tie-in: auto-dump on failure, bit determinism --------------- *)

(* cwd is the test's build directory under `dune runtest` (the corpus
   is declared as a dep) but the workspace root under `dune exec`. *)
let corpus_dir () =
  match List.find_opt Sys.file_exists [ "corpus"; "test/corpus" ] with
  | Some d -> d
  | None -> Alcotest.fail "corpus directory not found"

(* san_lost_trace.json: fig2 under a drop window with timeouts off —
   the seeded replay that must fail as a leak and, with it, the case
   ISSUE.md pins for automatic flight capture. *)
let lost_trace_case () =
  let path = Filename.concat (corpus_dir ()) "san_lost_trace.json" in
  let doc =
    match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.failf "%s: %s" path e
  in
  let plan =
    match Plan.of_json doc with
    | Ok p -> p
    | Error e -> Alcotest.failf "%s: %s" path e
  in
  ( {
      Campaign.cs_name = "san_lost_trace";
      cs_workload = "fig2";
      cs_seed = 6;
      cs_horizon_ms = 30_000.;
      cs_plan = plan;
    },
    fun c -> { c with Config.sanitize = true; enable_timeouts = false } )

let test_campaign_failure_dumps_flight () =
  let case, tweak = lost_trace_case () in
  let a = Campaign.run_case ~tweak case in
  let b = Campaign.run_case ~tweak case in
  (match a.Campaign.oc_failure with
  | Some (Campaign.Leak _) -> ()
  | Some f ->
      Alcotest.failf "expected a leak, got %s" (Campaign.failure_to_string f)
  | None -> Alcotest.fail "expected a leak, case passed");
  let ja =
    match a.Campaign.oc_flight with
    | Some j -> j
    | None -> Alcotest.fail "failing case produced no flight dump"
  in
  let jb =
    match b.Campaign.oc_flight with
    | Some j -> j
    | None -> Alcotest.fail "replay produced no flight dump"
  in
  Alcotest.(check string) "replayed dump is byte-identical"
    (Json.to_string ja) (Json.to_string jb);
  let d =
    match Flight.of_json ja with
    | Ok d -> d
    | Error e -> Alcotest.failf "campaign dump rejected: %s" e
  in
  let all = List.concat_map (fun site -> Flight.events d ~site) (Flight.sites d) in
  Alcotest.(check bool) "dump is non-empty" true (all <> []);
  Alcotest.(check bool) "the drops behind the leak are in the dump" true
    (List.exists (fun e -> e.Flight.ev_kind = Flight.Drop) all)

let test_recorder_schedule_neutral () =
  (* Turning the recorder off must not perturb the run: same simulated
     clock, same counters. Only tracer.aborted_spans may differ — it is
     written by the failure-time dump itself, which the off run never
     takes. *)
  let case, tweak = lost_trace_case () in
  let on = Campaign.run_case ~tweak case in
  let off =
    Campaign.run_case
      ~tweak:(fun c -> { (tweak c) with Config.flight_capacity = 0 })
      case
  in
  Alcotest.(check bool) "recorder off: no dump" true
    (off.Campaign.oc_flight = None);
  Alcotest.(check (float 0.)) "same simulated clock" on.Campaign.oc_sim_seconds
    off.Campaign.oc_sim_seconds;
  let strip = List.filter (fun (k, _) -> k <> "tracer.aborted_spans") in
  Alcotest.(check (list (pair string int)))
    "event-identical counters"
    (strip on.Campaign.oc_counters)
    (strip off.Campaign.oc_counters)

let () =
  Alcotest.run "flight"
    [
      ( "ring",
        [
          Alcotest.test_case "record and decode" `Quick test_record_decode;
          Alcotest.test_case "eviction keeps the newest" `Quick
            test_eviction_keeps_newest;
          Alcotest.test_case "payload clamp" `Quick test_payload_clamp;
          QCheck_alcotest.to_alcotest prop_growth_matches_fixed_ring;
        ] );
      ( "round_trip",
        [
          Alcotest.test_case "random dumps re-serialize byte-identically"
            `Quick test_random_round_trip;
        ] );
      ( "rejection",
        [ Alcotest.test_case "malformed documents" `Quick test_rejections ] );
      ( "engine",
        [
          Alcotest.test_case "fig1 dump round trip" `Quick
            test_engine_dump_round_trip;
          Alcotest.test_case "dump aborts open spans" `Quick
            test_dump_aborts_open_spans;
          Alcotest.test_case "second journal subscriber keeps the mirror"
            `Quick test_second_journal_subscriber;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "failure dumps a deterministic flight" `Quick
            test_campaign_failure_dumps_flight;
          Alcotest.test_case "recorder is schedule-neutral" `Quick
            test_recorder_schedule_neutral;
        ] );
    ]
