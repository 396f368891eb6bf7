(* The lib/fuzz suite: coverage-bitmap unit tests, the qcheck mutator
   properties (every mutation of a valid input stays valid and
   round-trips through the corpus codec), and the determinism pin —
   two in-process campaigns with the same seed and seed corpus must
   produce byte-identical dgc.fuzz/1 artifacts. *)

open Dgc_prelude
module Coverage = Dgc_fuzz.Coverage
module Input = Dgc_fuzz.Input
module Mutate = Dgc_fuzz.Mutate
module Pool = Dgc_fuzz.Pool
module Report = Dgc_fuzz.Report
module Fuzzer = Dgc_fuzz.Fuzzer
module Json = Dgc_telemetry.Json
module Plan = Dgc_chaos.Plan

(* --- coverage bitmap ---------------------------------------------------- *)

let keys = [ "p|mark|3|0"; "j|trace|1|2"; "v|plan|leak"; "p|mark|3|4" ]

let test_record_counts () =
  let c = Coverage.create ~size:1024 ~seed:7 () in
  List.iter (Coverage.record c) keys;
  Alcotest.(check int) "total counts every record" 4 (Coverage.total c);
  let h = Coverage.hits c in
  Alcotest.(check bool) "some slots set" true (h > 0 && h <= 4);
  Coverage.record c (List.hd keys);
  Alcotest.(check int) "re-hit bumps total" 5 (Coverage.total c);
  Alcotest.(check int) "re-hit sets no new slot" h (Coverage.hits c)

let test_seeded_hash_determinism () =
  let a = Coverage.create ~size:1024 ~seed:7 () in
  let b = Coverage.create ~size:1024 ~seed:7 () in
  List.iter (Coverage.record a) keys;
  List.iter (Coverage.record b) (List.rev keys);
  Alcotest.(check (list int))
    "same seed, any order: same hit set" (Coverage.bits a) (Coverage.bits b);
  Alcotest.(check int)
    "same signature"
    (Coverage.signature (Coverage.bits a))
    (Coverage.signature (Coverage.bits b));
  let c = Coverage.create ~size:1024 ~seed:8 () in
  List.iter (Coverage.record c) keys;
  Alcotest.(check bool)
    "different seed: different slots" true
    (Coverage.bits a <> Coverage.bits c)

(* Amplifying a known edge must still read as a new behaviour: the
   count-bucket projection gives the pool a gradient past the first
   hit (1 hit and 4 hits of the same key land in different buckets). *)
let test_count_buckets () =
  let once = Coverage.create ~size:1024 ~seed:7 () in
  Coverage.record once "p|mark|3|0";
  let many = Coverage.create ~size:1024 ~seed:7 () in
  for _ = 1 to 4 do
    Coverage.record many "p|mark|3|0"
  done;
  Alcotest.(check int) "still one slot" (Coverage.hits once) (Coverage.hits many);
  Alcotest.(check bool)
    "bucketed projection differs" true
    (Coverage.bits once <> Coverage.bits many)

let test_absorb_novelty_and_rarity () =
  let local = Coverage.create ~size:1024 ~seed:7 () in
  List.iter (Coverage.record local) keys;
  let bits = Coverage.bits local in
  let global = Coverage.create ~size:1024 ~seed:7 () in
  Alcotest.(check int)
    "first absorb: everything novel" (List.length bits)
    (Coverage.absorb global bits);
  Alcotest.(check int) "second absorb: nothing novel" 0
    (Coverage.absorb global bits);
  let r1 = Coverage.rarity global bits in
  ignore (Coverage.absorb global bits);
  let r2 = Coverage.rarity global bits in
  Alcotest.(check bool) "re-treading cools the weight" true (r2 < r1);
  Alcotest.(check (float 0.)) "empty set has no weight" 0.
    (Coverage.rarity global [])

let test_signature_shape () =
  let s = Coverage.signature [ 3; 17; 99 ] in
  Alcotest.(check bool) "non-negative" true (s >= 0);
  Alcotest.(check bool)
    "distinguishes sets" true
    (s <> Coverage.signature [ 3; 17 ]
    && Coverage.signature [] <> Coverage.signature [ 3 ])

(* --- pool --------------------------------------------------------------- *)

let test_pool_select () =
  let global = Coverage.create ~size:1024 ~seed:7 () in
  let pool = Pool.create () in
  Alcotest.(check bool)
    "empty pool selects nothing" true
    (Pool.select pool ~rng:(Rng.create ~seed:1) ~global = None);
  let rng = Rng.create ~seed:3 in
  let plan =
    Mutate.random_plan ~rng ~workload:"churn" ~sites:4 ~horizon_ms:10_000.
      ~events:2
  in
  let sched = Mutate.random_schedule ~rng ~sut:"fig1" ~max_steps:64 ~width:3 in
  Pool.add pool plan [ 1; 2 ];
  Pool.add pool sched [ 9 ];
  ignore (Coverage.absorb global [ 1; 2 ]);
  ignore (Coverage.absorb global [ 9 ]);
  Alcotest.(check int) "size" 2 (Pool.size pool);
  Alcotest.(check int) "plans" 1 (Pool.plans pool);
  Alcotest.(check int) "schedules" 1 (Pool.schedules pool);
  let pick seed =
    match Pool.select pool ~rng:(Rng.create ~seed) ~global with
    | Some e -> Input.kind_name e.Pool.e_input
    | None -> Alcotest.fail "non-empty pool selected nothing"
  in
  Alcotest.(check string)
    "selection is a function of the rng stream" (pick 5) (pick 5)

(* --- qcheck mutator properties (satellite: mutation validity) ----------- *)

(* Drive a chain of mutations from a qcheck-drawn rng seed and check
   the invariant the fuzzer relies on: it never wastes an execution on
   an input the validator would reject, and whatever it promotes
   round-trips through the corpus codec unchanged. *)
let sites = 4
let horizon_ms = 20_000.
let max_steps = 64
let width = 3

let roundtrips input =
  let j = Json.to_string (Input.to_json input) in
  match Input.of_json (Result.get_ok (Json.parse j)) with
  | Error e -> QCheck.Test.fail_reportf "corpus codec reload failed: %s" e
  | Ok (input', _) ->
      let j' = Json.to_string (Input.to_json input') in
      String.equal j j'
      || QCheck.Test.fail_reportf "codec not a fixpoint:\n%s\n%s" j j'

let prop_plan_mutations_valid =
  QCheck.Test.make ~count:150 ~name:"mutated plans stay valid and round-trip"
    QCheck.(pair small_nat small_nat)
    (fun (seed, steps) ->
      let rng = Rng.create ~seed:(seed + 1) in
      let input =
        ref (Mutate.random_plan ~rng ~workload:"churn" ~sites ~horizon_ms
               ~events:3)
      in
      let mate =
        Mutate.random_plan ~rng ~workload:"churn" ~sites ~horizon_ms ~events:2
      in
      let ok = ref true in
      for _ = 0 to steps mod 8 do
        let _op, m =
          Mutate.mutate ~rng ~sites ~horizon_ms ~max_steps ~width ~mate !input
        in
        input := m;
        (match m with
        | Input.Plan_input p -> (
            match Plan.validate ~sites p.Input.pi_plan with
            | Ok () -> ()
            | Error e -> ok := QCheck.Test.fail_reportf "invalid plan: %s" e)
        | Input.Schedule_input _ ->
            ok := QCheck.Test.fail_reportf "plan mutated into a schedule");
        ok := !ok && roundtrips m
      done;
      !ok)

let prop_sched_mutations_valid =
  QCheck.Test.make ~count:150
    ~name:"mutated schedules stay in bounds and round-trip"
    QCheck.(pair small_nat small_nat)
    (fun (seed, steps) ->
      let rng = Rng.create ~seed:(seed + 1) in
      let input =
        ref (Mutate.random_schedule ~rng ~sut:"fig1" ~max_steps ~width)
      in
      let mate = Mutate.random_schedule ~rng ~sut:"fig1" ~max_steps ~width in
      let ok = ref true in
      for _ = 0 to steps mod 8 do
        let _op, m =
          Mutate.mutate ~rng ~sites ~horizon_ms ~max_steps ~width ~mate !input
        in
        input := m;
        (match m with
        | Input.Schedule_input s ->
            let devs = s.Input.si_schedule in
            if List.sort_uniq compare devs <> devs then
              ok := QCheck.Test.fail_reportf "schedule not sorted/unique";
            List.iter
              (fun (step, rank) ->
                if step < 0 || step >= max_steps || rank < 1 || rank > width
                then
                  ok :=
                    QCheck.Test.fail_reportf "deviation (%d,%d) out of bounds"
                      step rank)
              devs
        | Input.Plan_input _ ->
            ok := QCheck.Test.fail_reportf "schedule mutated into a plan");
        ok := !ok && roundtrips m
      done;
      !ok)

let load path = Result.bind (Json.read_file ~path) Input.of_json

let test_save_load_meta () =
  let rng = Rng.create ~seed:9 in
  let input = Mutate.random_plan ~rng ~workload:"fig2" ~sites ~horizon_ms ~events:2 in
  let meta =
    {
      Input.m_expect = Some "leak";
      m_tweaks = [ "sanitize"; "no_timeouts" ];
      m_comment = Some "save/load fixture";
    }
  in
  let path = Filename.temp_file "dgc_fuzz_input" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Json.write_file ~path (Input.to_json ~meta input);
      match load path with
      | Error e -> Alcotest.failf "reload: %s" e
      | Ok (input', meta') ->
          Alcotest.(check string)
            "input round-trips"
            (Json.to_string (Input.to_json input))
            (Json.to_string (Input.to_json input'));
          Alcotest.(check (option string))
            "expect survives" meta.Input.m_expect meta'.Input.m_expect;
          Alcotest.(check (list string))
            "tweaks survive" meta.Input.m_tweaks meta'.Input.m_tweaks)

(* A tweak outside the vocabulary is a decode error, not an
   [Invalid_argument] when a replay first applies it. *)
let test_unknown_tweak_rejected () =
  let doc tweak =
    Printf.sprintf
      {|{"schema":"dgc.plan/1","workload":"fig2","tweak":["%s"],"events":[]}|}
      tweak
  in
  let decode t = Input.of_json (Result.get_ok (Json.parse (doc t))) in
  Alcotest.(check bool)
    "known tweak decodes" true
    (Result.is_ok (decode "sanitize"));
  match decode "sanitise" with
  | Ok _ -> Alcotest.fail "misspelt tweak \"sanitise\" decoded"
  | Error e ->
      Alcotest.(check bool)
        ("error names the tweak: " ^ e) true
        (String.ends_with ~suffix:"\"sanitise\"" e)

(* A defaulted field takes its default only when absent or null: one
   present with another type is refused, not replayed as the default
   case (seed "3" once decoded as seed 1, horizon 60 s, expect clean). *)
let test_mistyped_field_rejected () =
  let decode fields =
    Input.of_json
      (Result.get_ok
         (Json.parse
            (Printf.sprintf {|{"schema":"dgc.plan/1"%s,"events":[]}|} fields)))
  in
  let plan fields =
    match decode fields with
    | Ok (Input.Plan_input p, meta) -> (p, meta)
    | Ok _ -> Alcotest.fail "plan decoded as another input"
    | Error e -> Alcotest.failf "%s: %s" fields e
  in
  let p, meta = plan {|,"seed":3,"horizon_ms":20000,"expect":"clean"|} in
  Alcotest.(check (pair int (float 0.)))
    "typed fields decode" (3, 20000.) (p.Input.pi_seed, p.Input.pi_horizon_ms);
  Alcotest.(check (option string))
    "expect decodes" (Some "clean") meta.Input.m_expect;
  List.iter
    (fun fields ->
      let p, meta = plan fields in
      Alcotest.(check (pair int (float 0.)))
        (fields ^ ": defaults") (1, 60_000.)
        (p.Input.pi_seed, p.Input.pi_horizon_ms);
      Alcotest.(check (option string)) (fields ^ ": no expect") None
        meta.Input.m_expect)
    [ ""; {|,"seed":null,"horizon_ms":null,"expect":null|} ];
  List.iter
    (fun (fields, field) ->
      match decode fields with
      | Ok _ -> Alcotest.failf "mistyped %s decoded" fields
      | Error e ->
          Alcotest.(check bool)
            ("error names the field: " ^ e) true
            (String.starts_with ~prefix:(Printf.sprintf "field %S" field) e))
    [
      ({|,"seed":"3"|}, "seed");
      ({|,"horizon_ms":"20000"|}, "horizon_ms");
      ({|,"expect":1|}, "expect");
      ({|,"workload":7|}, "workload");
      ({|,"comment":[]|}, "comment");
    ]

(* --- the determinism pin (satellite: coverage-curve stability) ----------- *)

(* Same seed + same seed corpus ⇒ byte-identical dgc.fuzz/1 document
   across two in-process campaigns — the artifact carries no wall-clock
   fields and every draw comes from the seeded stream. Mirrors the CI
   smoke targets at a smaller budget. *)
let det_opts () =
  let corpus =
    Sys.readdir "corpus" |> Array.to_list
    |> List.filter (fun f ->
           String.length f >= 5 && String.sub f 0 5 = "fuzz_")
    |> List.sort compare
    |> List.map (fun f ->
           match load (Filename.concat "corpus" f) with
           | Ok (input, _) -> input
           | Error e -> Alcotest.failf "%s: %s" f e)
  in
  {
    Fuzzer.default_opts with
    Fuzzer.o_name = "det-pin";
    o_seed = 11;
    o_execs = 10;
    o_cov_size = 2048;
    o_workloads = [ "fig2" ];
    o_suts = [ "san-race-broken" ];
    o_tweaks = [ "sanitize"; "no_timeouts" ];
    o_horizon_ms = 15_000.;
    o_events = 2;
    o_max_steps = 64;
    o_corpus = corpus;
  }

let test_curve_determinism () =
  let opts = det_opts () in
  Alcotest.(check bool)
    "seed corpus found" true
    (List.length opts.Fuzzer.o_corpus >= 3);
  let a = Fuzzer.run opts in
  let b = Fuzzer.run opts in
  Alcotest.(check (list int))
    "identical coverage curves" a.Report.r_curve b.Report.r_curve;
  Alcotest.(check string)
    "byte-identical dgc.fuzz/1 artifacts"
    (Json.to_string (Report.to_json a))
    (Json.to_string (Report.to_json b));
  match Report.validate (Report.to_json a) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "report fails its own schema: %s" e

let () =
  Alcotest.run "fuzzer"
    [
      ( "coverage",
        [
          Alcotest.test_case "record/hits/total" `Quick test_record_counts;
          Alcotest.test_case "seeded hash determinism" `Quick
            test_seeded_hash_determinism;
          Alcotest.test_case "count-bucket gradient" `Quick test_count_buckets;
          Alcotest.test_case "absorb novelty and rarity" `Quick
            test_absorb_novelty_and_rarity;
          Alcotest.test_case "signature shape" `Quick test_signature_shape;
        ] );
      ("pool", [ Alcotest.test_case "rarity-weighted select" `Quick test_pool_select ]);
      ( "mutators",
        [
          QCheck_alcotest.to_alcotest prop_plan_mutations_valid;
          QCheck_alcotest.to_alcotest prop_sched_mutations_valid;
          Alcotest.test_case "save/load with meta" `Quick test_save_load_meta;
          Alcotest.test_case "unknown tweak rejected at decode" `Quick
            test_unknown_tweak_rejected;
          Alcotest.test_case "mistyped defaulted field rejected" `Quick
            test_mistyped_field_rejected;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "coverage curve pinned to the seed" `Quick
            test_curve_determinism;
        ] );
    ]
