(* The chaos tier: fault plans as values, deterministic injection, the
   hardened Ext delivery (idempotent handlers, bounded retry with
   backoff), the campaign driver's ddmin shrinker, the committed
   regression corpus, and the differential comparison against the
   baseline collectors under identical fault plans. *)

open Dgc_prelude
open Dgc_simcore
open Dgc_rts
open Dgc_core
open Dgc_workload
open Dgc_chaos
module Json = Dgc_telemetry.Json
module Oracle = Dgc_oracle.Oracle
module Shrink = Dgc_analysis.Shrink
module Conformance = Dgc_analysis.Conformance

let s k = Site_id.of_int k

let cfg n =
  {
    Config.default with
    Config.n_sites = n;
    delta = 3;
    threshold2 = 6;
    threshold_bump = 4;
    trace_interval = Sim_time.of_seconds 10.;
    trace_jitter = Sim_time.of_seconds 1.;
    trace_duration = Sim_time.zero;
    latency = Latency.Fixed (Sim_time.of_millis 5.);
  }

(* --- plans: serialization ------------------------------------------------- *)

let all_kinds_plan =
  {
    Plan.events =
      [
        { Plan.at_ms = 0.; dur_ms = 500.; ev = Plan.Crash { site = 1 } };
        {
          Plan.at_ms = 10.;
          dur_ms = 200.;
          ev = Plan.Partition { groups = [ [ 0 ]; [ 1; 2 ] ] };
        };
        { Plan.at_ms = 20.; dur_ms = 100.; ev = Plan.Drop { p = 0.75 } };
        { Plan.at_ms = 30.; dur_ms = 50.; ev = Plan.Dup { p = 0.5 } };
        { Plan.at_ms = 40.; dur_ms = 25.; ev = Plan.Slow { factor = 8. } };
      ];
  }

let plan_str p = Json.to_string (Plan.to_json p)

let test_plan_roundtrip () =
  match Result.bind (Json.parse (plan_str all_kinds_plan)) Plan.of_json with
  | Error e -> Alcotest.fail e
  | Ok p ->
      Alcotest.(check string) "round-trip is the identity"
        (plan_str all_kinds_plan) (plan_str p);
      Alcotest.(check int) "all five kinds survive" 5 (Plan.length p)

let test_random_plan_roundtrip () =
  for seed = 1 to 20 do
    let rng = Rng.create ~seed in
    let p = Plan.random ~rng ~sites:4 ~horizon_ms:60_000. ~events:6 in
    Alcotest.(check int) "requested size" 6 (Plan.length p);
    match Result.bind (Json.parse (plan_str p)) Plan.of_json with
    | Error e -> Alcotest.fail e
    | Ok p' -> Alcotest.(check string) "round-trip" (plan_str p) (plan_str p')
  done

let test_plan_rejects_garbage () =
  let bad label text =
    match Result.bind (Json.parse text) Plan.of_json with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: accepted" label
  in
  bad "wrong schema" {|{"schema":"dgc.run/1","events":[]}|};
  bad "unknown kind"
    {|{"schema":"dgc.plan/1","events":[{"kind":"meteor","at_ms":0,"dur_ms":1}]}|};
  bad "negative time"
    {|{"schema":"dgc.plan/1","events":[{"kind":"drop","at_ms":-5,"dur_ms":1,"p":0.5}]}|};
  bad "not json" "]["

(* --- injection determinism ------------------------------------------------ *)

let churn_case seed =
  {
    Campaign.cs_name = Printf.sprintf "churn-%d" seed;
    cs_workload = "churn";
    cs_seed = seed;
    cs_horizon_ms = 20_000.;
    cs_plan =
      Plan.random ~rng:(Rng.create ~seed) ~sites:5 ~horizon_ms:20_000.
        ~events:4;
  }

(* Same case, same outcome. The run artifact and the journal are
   rendered on demand: not by [run_case], and to the same bytes
   whenever they are forced — right away, after later cases have run,
   or twice. *)
let test_injection_determinism () =
  let case = churn_case 42 in
  let run oc = Json.to_string (Lazy.force oc.Campaign.oc_run) in
  let a = Campaign.run_case case in
  Alcotest.(check bool) "run_case renders no run artifact" false
    (Lazy.is_val a.Campaign.oc_run);
  Alcotest.(check bool) "run_case renders no journal" false
    (Lazy.is_val a.Campaign.oc_journal);
  let a_run = run a and a_journal = Lazy.force a.Campaign.oc_journal in
  let b = Campaign.run_case case in
  ignore (Campaign.run_case case);
  Alcotest.(check (list string)) "journals identical" a_journal
    (Lazy.force b.Campaign.oc_journal);
  Alcotest.(check string) "run artifacts identical" a_run (run b);
  Alcotest.(check (list (pair string int)))
    "counters identical" a.Campaign.oc_counters b.Campaign.oc_counters;
  let artifact = Json.to_string (Campaign.artifact a) in
  Alcotest.(check string) "artifacts bit-identical" artifact
    (Json.to_string (Campaign.artifact b));
  Alcotest.(check string) "artifact twice" artifact
    (Json.to_string (Campaign.artifact a));
  Alcotest.(check bool) "faults actually injected" true
    (a.Campaign.oc_injected > 0);
  (match a.Campaign.oc_failure with
  | None -> ()
  | Some f -> Alcotest.fail (Campaign.failure_to_string f))

(* A kept, unforced outcome must not keep its case's engine (sites,
   heaps, tracer, journal ring, subscribers) alive: a campaign keeps
   every outcome. *)
let test_unforced_outcome_frees_engine () =
  let w = Weak.create 1 in
  let oc =
    Campaign.run_case
      ~probe:(fun pb -> Weak.set w 0 (Some pb.Campaign.pb_eng))
      (churn_case 42)
  in
  Gc.full_major ();
  Alcotest.(check bool) "engine collected" false (Weak.check w 0);
  Alcotest.(check bool) "outcome still renders" true
    (Json.to_string (Campaign.artifact oc) <> "")

(* --- idempotent Ext delivery ---------------------------------------------- *)

(* A 2-site garbage ring with distances settled: one cross-site garbage
   component, ready to trace. *)
let ring_sim ?(timeout = 10.) ?(tweak = fun c -> c) () =
  let c =
    tweak
      { (cfg 2) with Config.back_call_timeout = Sim_time.of_seconds timeout }
  in
  let sim = Sim.make ~cfg:c () in
  ignore
    (Graph_gen.ring sim.Sim.eng ~sites:[ s 0; s 1 ] ~per_site:1 ~rooted:false);
  Scenario.settle sim ~rounds:8;
  sim

let start_any_trace sim =
  let started = ref None in
  Array.iter
    (fun st ->
      Tables.iter_outrefs st.Site.tables (fun o ->
          if !started = None && not (Ioref.outref_clean o) then
            started :=
              Collector.start_back_trace sim.Sim.col st.Site.id
                o.Ioref.or_target))
    (Engine.sites sim.Sim.eng);
  match !started with
  | Some tid -> tid
  | None -> Alcotest.fail "no dirty outref to trace"

let test_dup_everything_still_garbage () =
  (* Every collector message is delivered twice; the call memo, the
     per-frame reply dedup and the idempotent report handler must make
     the duplicates invisible. *)
  let sim = ring_sim ~tweak:(fun c -> { c with Config.ext_dup = 1.0 }) () in
  let outcome = ref None in
  Back_trace.on_outcome (Collector.back sim.Sim.col) (fun _ v _ ->
      outcome := Some v);
  ignore (start_any_trace sim);
  Sim.run_for sim (Sim_time.of_seconds 30.);
  (match !outcome with
  | Some v ->
      Alcotest.(check bool) "still concludes Garbage" true
        (Verdict.equal v Verdict.Garbage)
  | None -> Alcotest.fail "trace never completed");
  let m = Engine.metrics sim.Sim.eng in
  Alcotest.(check bool) "duplicates were injected" true
    (Metrics.get m "msg.duplicated" > 0);
  Alcotest.(check bool) "duplicate calls deduplicated" true
    (Metrics.get m "back.dup_call_ignored" + Metrics.get m "back.call_replayed"
    > 0);
  Alcotest.(check (list string)) "invariants clean" []
    (Invariants.strings (Invariants.check_all sim.Sim.eng))

let test_duplicate_report_is_noop () =
  let sim = ring_sim () in
  let outcome = ref None in
  Back_trace.on_outcome (Collector.back sim.Sim.col) (fun _ v _ ->
      outcome := Some v);
  let tid = start_any_trace sim in
  Sim.run_for sim (Sim_time.of_seconds 30.);
  Alcotest.(check bool) "trace concluded" true (!outcome <> None);
  let garbage0 = Oracle.garbage_count sim.Sim.eng in
  (* redeliver the outcome report to a participant, twice *)
  let back = Collector.back sim.Sim.col in
  for _ = 1 to 2 do
    Alcotest.(check bool) "report handled" true
      (Back_trace.handle_ext back (s 1) ~src:(s 0)
         (Back_trace.Back_report { trace = tid; outcome = Verdict.Garbage }))
  done;
  Sim.run_for sim (Sim_time.of_seconds 5.);
  Alcotest.(check int) "heap state unchanged" garbage0
    (Oracle.garbage_count sim.Sim.eng);
  Alcotest.(check (list string)) "invariants clean" []
    (Invariants.strings (Invariants.check_all sim.Sim.eng))

let fig_plan =
  {
    Plan.events =
      [
        { Plan.at_ms = 1_000.; dur_ms = 8_000.; ev = Plan.Drop { p = 0.4 } };
        { Plan.at_ms = 2_000.; dur_ms = 10_000.; ev = Plan.Dup { p = 0.6 } };
      ];
  }

let test_figs_safe_under_dup_drop_retry () =
  (* The acceptance bar: duplicated and dropped Ext messages, retries
     enabled (campaign default), over every figure scenario — safe
     throughout and complete after quiescence. *)
  List.iter
    (fun name ->
      let case =
        {
          Campaign.cs_name = name ^ "-harden";
          cs_workload = name;
          cs_seed = 5;
          cs_horizon_ms = 15_000.;
          cs_plan = fig_plan;
        }
      in
      let oc = Campaign.run_case case in
      match oc.Campaign.oc_failure with
      | None -> ()
      | Some f ->
          Alcotest.failf "%s: %s" name (Campaign.failure_to_string f))
    [ "fig1"; "fig2"; "fig3"; "fig4"; "fig5"; "fig6" ]

(* --- retry with backoff --------------------------------------------------- *)

let test_retry_backoff_schedule () =
  (* Permanent partition: the back call and all three retries are
     dropped. Attempt 0 times out at +10s; retries re-arm at
     10·2^k, so the Live give-up lands at +150s exactly. *)
  let sim = ring_sim ~tweak:(fun c -> { c with Config.retry_limit = 3 }) () in
  let eng = sim.Sim.eng in
  Engine.partition eng [ [ s 0 ]; [ s 1 ] ];
  let outcome = ref None in
  Back_trace.on_outcome (Collector.back sim.Sim.col) (fun _ v _ ->
      outcome := Some v);
  ignore (start_any_trace sim);
  let m = Engine.metrics eng in
  Sim.run_for sim (Sim_time.of_seconds 140.);
  Alcotest.(check int) "three retries spent" 3 (Metrics.get m "retry.back_call");
  Alcotest.(check bool) "still waiting at +140s" true (!outcome = None);
  Sim.run_for sim (Sim_time.of_seconds 20.);
  (match !outcome with
  | Some v ->
      Alcotest.(check bool) "gives up to Live after the last backoff" true
        (Verdict.equal v Verdict.Live)
  | None -> Alcotest.fail "no outcome by +160s");
  Alcotest.(check int) "exhaustion counted" 1 (Metrics.get m "retry.exhausted");
  Alcotest.(check bool) "garbage preserved (safety first)" true
    (Oracle.garbage_count eng > 0)

let test_retry_recovers_dropped_call () =
  (* The call is dropped by a transient partition; the first retry
     crosses the healed network and the trace still concludes Garbage —
     a single-shot caller would have timed out to Live. *)
  let sim =
    ring_sim ~timeout:5. ~tweak:(fun c -> { c with Config.retry_limit = 2 }) ()
  in
  let eng = sim.Sim.eng in
  Engine.partition eng [ [ s 0 ]; [ s 1 ] ];
  let outcome = ref None in
  Back_trace.on_outcome (Collector.back sim.Sim.col) (fun _ v _ ->
      outcome := Some v);
  ignore (start_any_trace sim);
  Sim.run_for sim (Sim_time.of_seconds 2.);
  Engine.heal eng;
  Sim.run_for sim (Sim_time.of_seconds 30.);
  (match !outcome with
  | Some v ->
      Alcotest.(check bool) "retry rescued the verdict" true
        (Verdict.equal v Verdict.Garbage)
  | None -> Alcotest.fail "trace never completed");
  let m = Engine.metrics eng in
  Alcotest.(check bool) "a retry was used" true
    (Metrics.get m "retry.back_call" >= 1);
  Alcotest.(check int) "never exhausted" 0 (Metrics.get m "retry.exhausted")

let test_report_redundancy_counted () =
  (* With retries on, §4.5 reports are blindly re-sent on a backoff
     schedule (receivers are idempotent). *)
  let case =
    {
      Campaign.cs_name = "fig1-reports";
      cs_workload = "fig1";
      cs_seed = 3;
      cs_horizon_ms = 15_000.;
      cs_plan = Plan.empty;
    }
  in
  let oc = Campaign.run_case case in
  (match oc.Campaign.oc_failure with
  | None -> ()
  | Some f -> Alcotest.fail (Campaign.failure_to_string f));
  match List.assoc_opt "retry.back_report" oc.Campaign.oc_counters with
  | Some n when n > 0 -> ()
  | _ -> Alcotest.fail "no redundant reports were sent"

(* [Back_trace.approx_bytes] reads a running count of visited marks.
   It must equal what a walk of every site's marks finds, at every
   step of a faulty case (marks are added by visits and cleared by
   reports and the TTL) and after the case. *)
let test_visited_count_matches_walk () =
  let walked sh =
    List.fold_left
      (fun n (_, per_site) ->
        List.fold_left (fun n (_, r) -> n + r.Back_trace.rs_visited) n per_site)
      0 (Back_trace.residue sh)
  in
  List.iter
    (fun workload ->
      for seed = 1 to 4 do
        let case =
          {
            Campaign.cs_name = Printf.sprintf "%s-visited-%d" workload seed;
            cs_workload = workload;
            cs_seed = seed;
            cs_horizon_ms = 20_000.;
            cs_plan =
              Plan.random ~rng:(Rng.create ~seed)
                ~sites:(Workloads.sites workload) ~horizon_ms:20_000. ~events:4;
          }
        in
        let back = ref None and steps = ref 0 and mismatches = ref 0 in
        let agree sh = Back_trace.visited_cells sh = walked sh in
        ignore
          (Campaign.run_case
             ~probe:(fun pb ->
               let sh = Collector.back pb.Campaign.pb_col in
               back := Some sh;
               Engine.add_step_watcher pb.Campaign.pb_eng (fun () ->
                   incr steps;
                   if not (agree sh) then incr mismatches))
             case);
        let sh = Option.get !back in
        Alcotest.(check int)
          (Printf.sprintf "%s: steps where the count and the walk differ"
             case.Campaign.cs_name)
          0 !mismatches;
        Alcotest.(check bool)
          (Printf.sprintf "%s: the case stepped" case.Campaign.cs_name)
          true (!steps > 0);
        Alcotest.(check int)
          (Printf.sprintf "%s: count equals walk after the case"
             case.Campaign.cs_name)
          (walked sh) (Back_trace.visited_cells sh)
      done)
    [ "ring"; "hypertext"; "race" ]

(* --- the shrinker --------------------------------------------------------- *)

let test_shrink_recovers_planted_pair () =
  (* Plant a "bug" that needs exactly events 1 and 4 of a six-event
     plan, using the same (index, rank) encoding Campaign.shrink_case
     feeds to ddmin; the shrinker must recover exactly that pair. *)
  let plan =
    Plan.random ~rng:(Rng.create ~seed:9) ~sites:4 ~horizon_ms:60_000.
      ~events:6
  in
  let reproduces devs =
    List.exists (fun (i, _) -> i = 1) devs
    && List.exists (fun (i, _) -> i = 4) devs
  in
  let initial = List.mapi (fun i _ -> (i, 1)) plan.Plan.events in
  let devs, replays = Shrink.minimize ~reproduces initial in
  Alcotest.(check (list (pair int int)))
    "exactly the planted pair"
    [ (1, 1); (4, 1) ]
    (List.sort compare devs);
  Alcotest.(check bool) "spent some replays" true (replays > 0)

let test_planted_bug_caught_and_shrunk () =
  (* Break the §6.1.1 transfer barrier and run the §6.4 race workload
     under a random plan: the oracle must catch the unsafe sweep and
     the shrinker must strip the (irrelevant) fault events down to a
     tiny reproducer. *)
  let tweak c = { c with Config.enable_transfer_barrier = false } in
  let summary =
    Campaign.run ~tweak ~workload:"race" ~seeds:[ 3 ] ~horizon_ms:30_000.
      ~events_per_plan:4 ()
  in
  match summary.Campaign.sm_failures with
  | [ (oc, shrunk, replays) ] ->
      (match oc.Campaign.oc_failure with
      | Some (Campaign.Safety _) -> ()
      | Some f ->
          Alcotest.failf "wrong failure kind: %s"
            (Campaign.failure_to_string f)
      | None -> assert false);
      Alcotest.(check bool) "shrunk to <= 3 fault events" true
        (Plan.length shrunk <= 3);
      Alcotest.(check bool) "shrinker replayed the case" true (replays > 0)
  | [] -> Alcotest.fail "planted safety bug was not caught"
  | _ -> Alcotest.fail "expected exactly one failing case"

(* --- differential: back tracing vs the baselines -------------------------- *)

let crash_uninvolved_site_plan =
  (* Site 2 holds no part of the cycle and is down for the whole run. *)
  {
    Plan.events =
      [ { Plan.at_ms = 0.; dur_ms = 600_000.; ev = Plan.Crash { site = 2 } } ];
  }

let diff_cfg () =
  { (cfg 3) with Config.oracle_checks = true; seed = 77 }

let test_differential_crashed_bystander () =
  (* The same plan against three collectors. Back tracing involves only
     the sites holding the cycle and collects it while site 2 is down;
     global tracing cannot finish its marking round and Hughes' global
     threshold stays pinned — exactly the paper's §7 claim, now
     exercised through the shared fault-plan machinery. *)
  let module B = Dgc_baselines in
  (* back tracing *)
  let sim = Sim.make ~cfg:(diff_cfg ()) () in
  ignore
    (Graph_gen.ring sim.Sim.eng ~sites:[ s 0; s 1 ] ~per_site:1 ~rooted:false);
  let inj = Inject.arm sim.Sim.eng crash_uninvolved_site_plan in
  Sim.start sim;
  let ok = Sim.collect_all sim ~max_rounds:40 () in
  Alcotest.(check bool) "back tracing collects despite the crash" true ok;
  Alcotest.(check int) "no garbage left" 0 (Oracle.garbage_count sim.Sim.eng);
  Alcotest.(check bool) "the bystander really was down" true
    (Inject.active inj = 1);
  Inject.quiesce inj;
  (* global tracing *)
  let eng2 = Engine.create (diff_cfg ()) in
  let gt = B.Global_trace.install eng2 in
  ignore (Graph_gen.ring eng2 ~sites:[ s 0; s 1 ] ~per_site:1 ~rooted:false);
  let inj2 = Inject.arm eng2 crash_uninvolved_site_plan in
  let done_ = ref false in
  B.Global_trace.collect gt ~on_done:(fun ~freed:_ ~rounds:_ -> done_ := true) ();
  Engine.run_for eng2 (Sim_time.of_seconds 300.);
  Alcotest.(check bool) "global trace stalls" false !done_;
  Alcotest.(check bool) "global trace leaves the cycle" true
    (Oracle.garbage_count eng2 > 0);
  Inject.quiesce inj2;
  (* Hughes timestamps *)
  let eng3 = Engine.create (diff_cfg ()) in
  ignore (Graph_gen.ring eng3 ~sites:[ s 0; s 1 ] ~per_site:1 ~rooted:false);
  let h = B.Hughes.install eng3 ~depth:(Oracle.max_distance eng3) in
  let inj3 = Inject.arm eng3 crash_uninvolved_site_plan in
  Engine.start_gc_schedule eng3;
  for _ = 1 to 20 do
    Engine.run_for eng3 (Sim_time.of_seconds 15.);
    B.Hughes.run_threshold_round h ()
  done;
  Alcotest.(check (float 1e-9)) "Hughes threshold pinned" 0.
    (B.Hughes.threshold h);
  Alcotest.(check bool) "Hughes leaves the cycle" true
    (Oracle.garbage_count eng3 > 0);
  Inject.quiesce inj3

(* --- the committed corpus ------------------------------------------------- *)

(* Two corpus shapes coexist. "dgc.plan/1" files are fault plans
   replayed through the campaign driver; they may pin an expected
   failure ("expect") and the config tweaks that arm it ("tweak") —
   the PR-6 sanitizer reproducers need [Config.sanitize] on and, for
   the leak, the §4.6 timeouts off. "dgc.schedule/1" files are
   explorer deviation schedules replayed against a catalog SUT: the
   §6.4 race is causally ordered under every FIFO fault plan (the Move
   departs its site only after the trace read was delivered there), so
   its reproducer is a queue deviation, not a fault window.

   Both shapes load through [Dgc_fuzz.Input] — the same codec the
   fuzzer promotes reproducers with — so anything the fuzzer writes
   into the corpus is replayable here by construction. *)

module Explorer = Dgc_analysis.Explorer
module Sut = Dgc_analysis.Sut
module Finput = Dgc_fuzz.Input

(* cwd is the test's build directory under `dune runtest` (the corpus
   is declared as a dep) but the workspace root under `dune exec`. *)
let corpus_dir () =
  match List.find_opt Sys.file_exists [ "corpus"; "test/corpus" ] with
  | Some d -> d
  | None -> Alcotest.fail "corpus directory not found"

let load_corpus_file dir f =
  Result.bind (Json.read_file ~path:(Filename.concat dir f)) Finput.of_json

let corpus_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort String.compare

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* The substring a schedule-case violation must mention for each
   expected kind — the sanitizer's report vocabulary. *)
let expect_needle path = function
  | "race" -> "harmful race"
  | "leak" -> "lost trace"
  | e -> Alcotest.failf "%s: unknown expect %S" path e

(* Byte-identity pins: the digest of each plan file's dgc.chaos/1
   replay artifact. Every engine refactor must leave these unchanged;
   a deliberate behaviour change (or a newly promoted plan) updates the
   entry named in the failure message. *)
let plan_artifact_digests =
  [
    ("chaos_3328.json", "4c56edaeeb47bfb3aedcd56b78eb2a52");
    ("churn_18000940.json", "4248a9d56cfea7a995a4a195d5a9cf19");
    ("churn_4088.json", "f59e3b7245a98a245475ae5d1f961287");
    ("crash_mid_trace.json", "c666efb763880363d558b13dc9323182");
    ("drop_retry.json", "1db0166d8223ade0b652d9336ddce362");
    ("dup_burst.json", "1b2b56ef798f23c9f791e05d3dd45795");
    ("fuzz_leak_fd91bd36.json", "5e6da47c5a23316fb8bac46e0e04014f");
    ("partition_during_report.json", "e6b7393ae4d38fc1927c387cdccfb098");
    ("san_lost_trace.json", "f7c4e9f9e43a234e29d45b107365793f");
  ]

let replay_plan_case f (p : Finput.plan_case) (meta : Finput.meta) =
  Alcotest.(check bool)
    (f ^ ": known workload") true
    (Workloads.mem p.Finput.pi_workload);
  let tweak = Finput.tweak_all meta.Finput.m_tweaks in
  let case =
    Finput.case_of_plan ~name:(Filename.remove_extension f) p
  in
  let oc = Campaign.run_case ~tweak case in
  (match (meta.Finput.m_expect, oc.Campaign.oc_failure) with
  | None, None -> ()
  | None, Some fl -> Alcotest.failf "%s: %s" f (Campaign.failure_to_string fl)
  | Some e, Some fl when String.equal e (Campaign.failure_kind fl) -> ()
  | Some e, Some fl ->
      Alcotest.failf "%s: expected %s, got %s" f e
        (Campaign.failure_to_string fl)
  | Some e, None -> Alcotest.failf "%s: expected %s, replayed clean" f e);
  let got =
    Digest.to_hex
      (Digest.string (Json.to_string (Campaign.artifact oc)))
  in
  match List.assoc_opt f plan_artifact_digests with
  | Some want -> Alcotest.(check string) (f ^ ": artifact digest") want got
  | None ->
      Alcotest.failf "%s: no artifact pin; add (%S, %S) to plan_artifact_digests"
        f f got

let replay_sched_case f (s : Finput.sched_case) (meta : Finput.meta) =
  let sut =
    match Sut.find s.Finput.si_sut with
    | Some x -> x
    | None -> Alcotest.failf "%s: unknown SUT %S" f s.Finput.si_sut
  in
  let run =
    Explorer.run_schedule sut ~max_steps:s.Finput.si_max_steps
      s.Finput.si_schedule
  in
  let expect =
    match meta.Finput.m_expect with
    | Some e -> e
    | None -> Alcotest.failf "%s: schedule corpus files must pin \"expect\"" f
  in
  let needle = expect_needle f expect in
  match run.Explorer.run_violation with
  | Some (_, msgs) when List.exists (contains_sub ~sub:needle) msgs -> ()
  | Some (_, msgs) ->
      Alcotest.failf "%s: expected %S in violation, got: %s" f needle
        (String.concat " | " msgs)
  | None ->
      Alcotest.failf "%s: schedule replayed clean, expected %s" f expect

let test_corpus_replays_clean () =
  let dir = corpus_dir () in
  let files = corpus_files dir in
  Alcotest.(check bool) "corpus is non-empty" true (List.length files >= 7);
  List.iter
    (fun (f, _) ->
      if not (List.mem f files) then
        Alcotest.failf "%s: pinned but missing from the corpus" f)
    plan_artifact_digests;
  List.iter
    (fun f ->
      match load_corpus_file dir f with
      | Error e -> Alcotest.failf "%s: %s" f e
      | Ok (Finput.Plan_input p, meta) -> replay_plan_case f p meta
      | Ok (Finput.Schedule_input s, meta) -> replay_sched_case f s meta)
    files

(* --- observation: the back-trace span stream is pinned -------------------- *)

(* The span stream of four corpus plans and one ring case with Ext loss
   and duplication raised: each case's span count and the digest of its
   [Tracer.to_jsonl] export. The span bookkeeping (keys, parents, trace
   text, attributes) may be reshaped only if these stay put. *)
let span_stream_pins =
  [
    ("crash_mid_trace.json", (25, "114ecbfd744795fb287fcc5fb0c9c231"));
    ("drop_retry.json", (0, "d41d8cd98f00b204e9800998ecf8427e"));
    ("dup_burst.json", (19, "57d1886b3234b65061ed3bd48eaf4076"));
    ("partition_during_report.json", (10, "5c27500cf5c1e92eb7be0cc6818393fb"));
    ("ring-ext-loss", (97, "aca5a2d14420cccdfbebd4217033aaf9"));
  ]

let ring_loss_case =
  {
    Campaign.cs_name = "ring-ext-loss";
    cs_workload = "ring";
    cs_seed = 3;
    cs_horizon_ms = 60_000.;
    cs_plan =
      {
        Plan.events =
          [
            { Plan.at_ms = 2_000.; dur_ms = 10_000.; ev = Plan.Dup { p = 0.4 } };
            {
              Plan.at_ms = 5_000.;
              dur_ms = 8_000.;
              ev = Plan.Partition { groups = [ [ 0; 1 ]; [ 2; 3 ] ] };
            };
          ];
      };
  }

let span_stream ?tweak case =
  let eng = ref None in
  ignore
    (Campaign.run_case ?tweak
       ~probe:(fun pb -> eng := Some pb.Campaign.pb_eng)
       case);
  match Engine.tracer (Option.get !eng) with
  | None -> Alcotest.fail "campaign case runs untraced"
  | Some tr ->
      ( Dgc_telemetry.Tracer.span_count tr,
        Digest.to_hex (Digest.string (Dgc_telemetry.Tracer.to_jsonl tr)) )

let test_span_stream_pinned () =
  let dir = corpus_dir () in
  let plan f =
    match load_corpus_file dir f with
    | Ok (Finput.Plan_input p, meta) ->
        ( Finput.case_of_plan ~name:(Filename.remove_extension f) p,
          Finput.tweak_all meta.Finput.m_tweaks )
    | Ok _ -> Alcotest.failf "%s: not a plan" f
    | Error e -> Alcotest.failf "%s: %s" f e
  in
  List.iter
    (fun (name, (want_n, want_md5)) ->
      let case, tweak =
        if Filename.check_suffix name ".json" then plan name
        else
          ( ring_loss_case,
            fun c -> { c with Config.ext_drop = 0.2; ext_dup = 0.3 } )
      in
      let n, md5 = span_stream ~tweak case in
      if n <> want_n || not (String.equal md5 want_md5) then
        Alcotest.failf "%s: span stream (%d, %S), pinned (%d, %S)" name n md5
          want_n want_md5)
    span_stream_pins

(* --- observation: one event stream, schedule-neutral ---------------------- *)

(* Every fault kind, so the stream carries drops, dup copies, faults and
   redeliveries as well as plain traffic. *)
let neutral_plan =
  {
    Plan.events =
      [
        { Plan.at_ms = 1_000.; dur_ms = 14_000.; ev = Plan.Drop { p = 0.3 } };
        { Plan.at_ms = 2_000.; dur_ms = 3_000.; ev = Plan.Crash { site = 1 } };
        { Plan.at_ms = 3_000.; dur_ms = 14_000.; ev = Plan.Dup { p = 0.5 } };
        {
          Plan.at_ms = 6_000.;
          dur_ms = 3_000.;
          ev = Plan.Partition { groups = [ [ 0; 1 ]; [ 2; 3; 4 ] ] };
        };
        {
          Plan.at_ms = 10_000.;
          dur_ms = 2_000.;
          ev = Plan.Slow { factor = 4. };
        };
      ];
  }

(* Events executed so far, from the profiler's per-scope [events] work
   (the profiler is not a subscriber). *)
let profiled_events eng =
  match Engine.profile eng with
  | None -> Alcotest.fail "profiler not attached"
  | Some p ->
      Dgc_profile.Profile.to_folded ~unit_:"events" p
      |> String.split_on_char '\n'
      |> List.fold_left
           (fun acc line ->
             match String.rindex_opt line ' ' with
             | Some i ->
                 acc
                 + int_of_string
                     (String.sub line (i + 1) (String.length line - i - 1))
             | None -> acc)
           0

(* The one neutrality contract for the event stream: the same seeded
   campaign with no optional subscriber and with the flight recorder,
   dgc-san, the conformance automata and a counting subscriber all
   attached runs the same events to the same clock and the same
   counters. Only the observers' own counters (the san. family) may
   differ. *)
let test_subscribers_schedule_neutral () =
  List.iter
    (fun workload ->
      let case =
        {
          Campaign.cs_name = "neutral-" ^ workload;
          cs_workload = workload;
          cs_seed = 7;
          cs_horizon_ms = 20_000.;
          cs_plan = neutral_plan;
        }
      in
      let run ~observed =
        let eng = ref None and at_probe = ref 0 and steps = ref 0 in
        let tweak c =
          {
            c with
            Config.profile = true;
            sanitize = observed;
            flight_capacity =
              (if observed then c.Config.flight_capacity else 0);
          }
        in
        let probe pb =
          let e = pb.Campaign.pb_eng in
          eng := Some e;
          at_probe := profiled_events e;
          if observed then begin
            Conformance.attach (Conformance.create ()) e;
            Engine.subscribe e (function Engine.Step -> incr steps | _ -> ())
          end
        in
        let oc = Campaign.run_case ~tweak ~probe case in
        let events = profiled_events (Option.get !eng) in
        (oc, events, events - !at_probe, !steps)
      in
      let bare, bare_events, _, _ = run ~observed:false in
      let full, full_events, after_probe, steps = run ~observed:true in
      let fail_str oc =
        Option.fold ~none:"passed" ~some:Campaign.failure_to_string
          oc.Campaign.oc_failure
      in
      Alcotest.(check string)
        (workload ^ ": same verdict") (fail_str bare) (fail_str full);
      Alcotest.(check (float 0.))
        (workload ^ ": same simulated clock") bare.Campaign.oc_sim_seconds
        full.Campaign.oc_sim_seconds;
      Alcotest.(check int) (workload ^ ": same event count") bare_events
        full_events;
      Alcotest.(check int)
        (workload ^ ": the counting subscriber saw every later step")
        after_probe steps;
      let own (k, _) = String.starts_with ~prefix:"san." k in
      let strip = List.filter (fun c -> not (own c)) in
      Alcotest.(check (list (pair string int)))
        (workload ^ ": same counters")
        (strip bare.Campaign.oc_counters)
        (strip full.Campaign.oc_counters);
      Alcotest.(check bool)
        (workload ^ ": the observed run did observe")
        true
        (List.exists own full.Campaign.oc_counters))
    [ "churn"; "ring" ]

let () =
  Alcotest.run "chaos"
    [
      ( "plan",
        [
          Alcotest.test_case "all kinds round-trip" `Quick test_plan_roundtrip;
          Alcotest.test_case "random plans round-trip" `Quick
            test_random_plan_roundtrip;
          Alcotest.test_case "malformed plans rejected" `Quick
            test_plan_rejects_garbage;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed+plan, identical journals" `Quick
            test_injection_determinism;
          Alcotest.test_case "an unforced outcome frees its engine" `Quick
            test_unforced_outcome_frees_engine;
        ] );
      ( "idempotency",
        [
          Alcotest.test_case "duplicate everything, still Garbage" `Quick
            test_dup_everything_still_garbage;
          Alcotest.test_case "duplicate report is a no-op" `Quick
            test_duplicate_report_is_noop;
          Alcotest.test_case "figures safe under dup+drop+retry" `Quick
            test_figs_safe_under_dup_drop_retry;
        ] );
      ( "retry",
        [
          Alcotest.test_case "backoff schedule and bounded give-up" `Quick
            test_retry_backoff_schedule;
          Alcotest.test_case "retry rescues a dropped call" `Quick
            test_retry_recovers_dropped_call;
          Alcotest.test_case "report redundancy counted" `Quick
            test_report_redundancy_counted;
          Alcotest.test_case "visited count equals the walked marks" `Quick
            test_visited_count_matches_walk;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "recovers a planted 2-event plan" `Quick
            test_shrink_recovers_planted_pair;
          Alcotest.test_case "planted barrier bug caught and shrunk" `Quick
            test_planted_bug_caught_and_shrunk;
        ] );
      ( "differential",
        [
          Alcotest.test_case "crashed bystander: back vs baselines" `Quick
            test_differential_crashed_bystander;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "committed plans replay clean" `Quick
            test_corpus_replays_clean;
        ] );
      ( "observation",
        [
          Alcotest.test_case "every subscriber is schedule-neutral" `Quick
            test_subscribers_schedule_neutral;
          Alcotest.test_case "span stream is pinned" `Quick
            test_span_stream_pinned;
        ] );
    ]
