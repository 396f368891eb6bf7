(* Bench regression gate: compare a freshly-generated BENCH artifact
   against the committed baseline (BENCH_backtrace.json at the repo
   root).

     compare.exe BASELINE FRESH [--tolerance FRAC]
                 [--exact-counters] [--hist-tolerance FRAC]

   The BENCH section is seeded and the engine deterministic, so the two
   artifacts are normally identical; the tolerance (default 0.25)
   absorbs intentional small shifts — e.g. a protocol tweak that adds a
   message — while a missing counter/histogram or a drift beyond the
   tolerance on any back.* / msg.* counter or histogram summary
   (n, p50, p95, max) fails the @bench-smoke alias.

   The scale artifact splits the two regimes explicitly: its counters
   (visit counts, outset-store stats, rounds-to-collect) are exact by
   construction and gated with [--exact-counters], while its wall-clock
   histograms vary by machine and get a generous [--hist-tolerance].
   Histogram values are gated in one direction only: a fresh value
   below the baseline (a speed-up) always passes, and only growth
   beyond the tolerance fails. Sample counts stay two-sided. *)

module Json = Dgc_telemetry.Json
module Run_artifact = Dgc_telemetry.Run_artifact

let fail = ref []
let complain fmt = Printf.ksprintf (fun s -> fail := s :: !fail) fmt

let close ~tol a b =
  (* Small integer counts get absolute slack; everything else relative. *)
  abs_float (a -. b) <= 2.0
  || abs_float (a -. b) <= tol *. Float.max (abs_float a) (abs_float b)

let not_worse ~tol ~base fresh = fresh <= base || close ~tol base fresh

let obj_fields = function Some (Json.Obj fields) -> fields | _ -> []

(* retry.*, chaos.* and san.* counters come from the delivery-hardening,
   fault-injection and sanitizer channels: they appear only in runs that
   exercised them. profile.* counters come from the sim-cost profiler,
   which only runs when [Config.profile] is set, and ledger.* counters
   only from the benches that report the collector's cost ledger. All
   are judged against 0 when absent
   rather than flagged as a disappearance, so artifacts from before the
   channel existed (or with it switched off) still gate cleanly. *)
let optional_counter k =
  String.starts_with ~prefix:"retry." k
  || String.starts_with ~prefix:"chaos." k
  || String.starts_with ~prefix:"san." k
  || String.starts_with ~prefix:"profile." k
  || String.starts_with ~prefix:"ledger." k

let contains_sub s sub =
  let ls = String.length s and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
  go 0

(* t100k-tier keys only exist in --full runs, which the committed smoke
   baseline is not. They are informational in the artifact and never
   gated, in either direction. *)
let skipped_key k = contains_sub k "t100k"

let compare_counters ~tol ~exact base fresh =
  let bc = obj_fields (Json.member "counters" base) in
  let fc = obj_fields (Json.member "counters" fresh) in
  List.iter
    (fun (k, v) ->
      match (if skipped_key k then None else Json.to_int_opt v) with
      | None -> ()
      | Some b -> (
          match Option.bind (List.assoc_opt k fc) Json.to_int_opt with
          | None when optional_counter k ->
              (* fault-channel counters only exist when faults fired *)
              if not (close ~tol (float_of_int b) 0.) then
                complain "counter %s: baseline %d, now absent" k b
          | None -> complain "counter %s disappeared (baseline %d)" k b
          | Some f ->
              if exact then begin
                if b <> f then
                  complain "counter %s: baseline %d, now %d (exact gate)" k b
                    f
              end
              else if not (close ~tol (float_of_int b) (float_of_int f)) then
                complain "counter %s: baseline %d, now %d" k b f))
    bc

(* The series section ({!Dgc_telemetry.Series.to_json}) carries per-name
   summaries (n, max, last, total) of the sim-time bucketed series. They
   are functions of sim time and the deterministic size model — never of
   wall clock — so they gate with the same tolerance as counters. *)
let compare_series ~tol base fresh =
  let section j =
    match Json.member "series" j with
    | Some s -> obj_fields (Json.member "series" s)
    | None -> []
  in
  let bs = section base in
  let fs = section fresh in
  List.iter
    (fun (name, bsum) ->
      match List.assoc_opt name fs with
      | None -> complain "series %s disappeared" name
      | Some fsum ->
          List.iter
            (fun field ->
              let get j = Option.bind (Json.member field j) Json.to_float_opt in
              match (get bsum, get fsum) with
              | Some b, Some f ->
                  if not (close ~tol b f) then
                    complain "series %s.%s: baseline %g, now %g" name field b f
              | _ -> complain "series %s.%s missing" name field)
            [ "n"; "max"; "last"; "total" ])
    bs

(* The flight-recorder overhead gate: the fresh artifact's
   extra.flight_overhead.ratio (recorder-on wall / recorder-off wall at
   t10k, min-of-reps both arms) must stay under the limit. Judged on the
   fresh run only — the walls are machine-dependent, so the committed
   baseline's ratio proves nothing about this machine. *)
let gate_flight_ratio ~limit fresh =
  let ratio =
    Option.bind (Json.member "extra" fresh) (Json.member "flight_overhead")
    |> Fun.flip Option.bind (Json.member "ratio")
    |> Fun.flip Option.bind Json.to_float_opt
  in
  match ratio with
  | None ->
      complain "extra.flight_overhead.ratio missing (gate --flight-ratio-max)"
  | Some r when Float.is_nan r ->
      complain "extra.flight_overhead.ratio is nan (gate --flight-ratio-max)"
  | Some r ->
      if r > limit then
        complain "flight recorder overhead %.3fx exceeds the %.2fx gate" r
          limit

(* The profiler overhead gate: extra.profile_overhead.ratio (profiler-on
   wall / profiler-off wall at t10k, best-pair both arms) must stay
   under the limit. Like the flight gate, judged on the fresh run only. *)
let gate_profile_ratio ~limit fresh =
  let ratio =
    Option.bind (Json.member "extra" fresh) (Json.member "profile_overhead")
    |> Fun.flip Option.bind (Json.member "ratio")
    |> Fun.flip Option.bind Json.to_float_opt
  in
  match ratio with
  | None ->
      complain
        "extra.profile_overhead.ratio missing (gate --profile-ratio-max)"
  | Some r when Float.is_nan r ->
      complain "extra.profile_overhead.ratio is nan (gate --profile-ratio-max)"
  | Some r ->
      if r > limit then
        complain "profiler overhead %.3fx exceeds the %.2fx gate" r limit

(* The phase-share gate: both artifacts must carry a [dgc.profile/1]
   section, and the share of deterministic work units attributed to
   each top-level phase must not drift beyond the tolerance. Shares are
   functions of work units — never of wall clock — so they gate across
   machines; the tolerance absorbs intentional rebalancing. *)
let gate_profile_shares ~tolerance base fresh =
  match
    (Run_artifact.profile_section base, Run_artifact.profile_section fresh)
  with
  | None, _ ->
      complain "baseline has no profile section (gate \
                --profile-share-tolerance)"
  | _, None ->
      complain "fresh artifact has no profile section (gate \
                --profile-share-tolerance)"
  | Some bp, Some fp -> (
      match
        Dgc_profile.Profile.diff ~share_tolerance:tolerance bp fp
      with
      | Error e -> complain "profile diff: %s" e
      | Ok rep ->
          if rep.Dgc_profile.Profile.df_regressed then
            complain
              "profile phase shares drifted %.2f%% (> %.2f%% tolerance)"
              (100. *. rep.Dgc_profile.Profile.df_max_share_drift)
              (100. *. tolerance))

let compare_hists ~tol base fresh =
  let bh = obj_fields (Json.member "histograms" base) in
  let fh = obj_fields (Json.member "histograms" fresh) in
  List.iter
    (fun (k, bstats) ->
      match (if skipped_key k then None else List.assoc_opt k fh) with
      | None ->
          if not (skipped_key k) then complain "histogram %s disappeared" k
      | Some fstats ->
          List.iter
            (fun field ->
              let get j =
                Option.bind (Json.member field j) Json.to_float_opt
              in
              match (get bstats, get fstats) with
              | Some b, Some f ->
                  let ok =
                    if field = "n" then close ~tol b f
                    else not_worse ~tol ~base:b f
                  in
                  if not ok then
                    complain "histogram %s.%s: baseline %g, now %g" k field b
                      f
              | _ -> complain "histogram %s.%s missing" k field)
            [ "n"; "p50"; "p95"; "max" ])
    bh

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let tol, hist_tol, exact, flight_max, profile_max, share_tol, paths =
    let rec go tol htol exact fmax pmax stol paths = function
      | "--tolerance" :: v :: rest ->
          go (float_of_string v) htol exact fmax pmax stol paths rest
      | "--hist-tolerance" :: v :: rest ->
          go tol (Some (float_of_string v)) exact fmax pmax stol paths rest
      | "--exact-counters" :: rest -> go tol htol true fmax pmax stol paths rest
      | "--flight-ratio-max" :: v :: rest ->
          go tol htol exact (Some (float_of_string v)) pmax stol paths rest
      | "--profile-ratio-max" :: v :: rest ->
          go tol htol exact fmax (Some (float_of_string v)) stol paths rest
      | "--profile-share-tolerance" :: v :: rest ->
          go tol htol exact fmax pmax (Some (float_of_string v)) paths rest
      | p :: rest -> go tol htol exact fmax pmax stol (p :: paths) rest
      | [] -> (tol, htol, exact, fmax, pmax, stol, List.rev paths)
    in
    go 0.25 None false None None None [] args
  in
  let hist_tol = Option.value hist_tol ~default:tol in
  let baseline_path, fresh_path =
    match paths with
    | [ b; f ] -> (b, f)
    | _ ->
        prerr_endline
          "usage: compare.exe BASELINE FRESH [--tolerance FRAC] \
           [--exact-counters] [--hist-tolerance FRAC] \
           [--flight-ratio-max FRAC] [--profile-ratio-max FRAC] \
           [--profile-share-tolerance FRAC]";
        exit 2
  in
  let load path =
    match Run_artifact.read ~path with
    | Ok j -> (
        match Run_artifact.validate j with
        | Ok () -> j
        | Error e ->
            Printf.eprintf "%s: invalid artifact: %s\n" path e;
            exit 2)
    | Error e ->
        Printf.eprintf "%s: %s\n" path e;
        exit 2
  in
  let base = load baseline_path in
  let fresh = load fresh_path in
  compare_counters ~tol ~exact base fresh;
  compare_hists ~tol:hist_tol base fresh;
  compare_series ~tol base fresh;
  Option.iter (fun limit -> gate_flight_ratio ~limit fresh) flight_max;
  Option.iter (fun limit -> gate_profile_ratio ~limit fresh) profile_max;
  Option.iter
    (fun tolerance -> gate_profile_shares ~tolerance base fresh)
    share_tol;
  match !fail with
  | [] ->
      Printf.printf
        "bench compare: %s ok vs baseline %s (counters %s, hists %.0f%%)\n"
        fresh_path baseline_path
        (if exact then "exact" else Printf.sprintf "%.0f%%" (tol *. 100.))
        (hist_tol *. 100.)
  | msgs ->
      Printf.eprintf "bench compare: %d regressions vs %s:\n"
        (List.length msgs) baseline_path;
      List.iter (fun m -> Printf.eprintf "  %s\n" m) (List.rev msgs);
      exit 1
