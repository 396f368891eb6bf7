(* Observatory: watching a live system through the operator surface.

     dune exec examples/observatory.exe

   Runs randomized mutator churn under the collector and periodically
   prints the per-site summary, the oracle's garbage overview, the
   back-trace latency/frames histograms and the live span counts — the
   kind of dashboard a real deployment would expose. Ends with an
   invariant audit, a span log (JSONL + Chrome trace-event, loadable in
   ui.perfetto.dev) and a Graphviz dump of whatever object graph is
   left. *)

open Dgc_prelude
open Dgc_simcore
open Dgc_rts
open Dgc_core
open Dgc_workload
open Dgc_telemetry
module Obs = Dgc_observe

let say fmt = Format.printf (fmt ^^ "@.")

let pp_hist m name =
  match Metrics.hist_stats m name with
  | None -> ()
  | Some h ->
      say "  %-28s n=%-4d p50=%-8.3g p95=%-8.3g p99=%-8.3g max=%.3g" name
        h.Metrics.n h.Metrics.p50 h.Metrics.p95 h.Metrics.p99 h.Metrics.max

let () =
  let cfg =
    {
      Config.default with
      Config.n_sites = 4;
      seed = 1234;
      trace_interval = Sim_time.of_seconds 10.;
      trace_duration = Sim_time.of_seconds 1.;
      delta = 3;
      threshold2 = 7;
      threshold_bump = 5;
    }
  in
  let sim = Sim.make ~cfg () in
  let eng = sim.Sim.eng in
  let tracer = Tracer.create () in
  Engine.attach_tracer eng tracer;
  Engine.attach_journal eng (Journal.create ());
  Array.iter (fun st -> ignore (Builder.root_obj eng st.Site.id)) (Engine.sites eng);
  ignore
    (Graph_gen.random_graph eng ~rng:(Rng.create ~seed:55) ~objects_per_site:10
       ~out_degree:1.4 ~remote_frac:0.35 ~root_frac:0.1);
  (* An unrooted inter-site ring: distributed cyclic garbage only back
     tracing can reclaim, so the span dashboard has something to show. *)
  ignore
    (Graph_gen.ring eng
       ~sites:(List.init cfg.Config.n_sites Site_id.of_int)
       ~per_site:2 ~rooted:false);
  let churn =
    Churn.start sim ~rng:(Rng.create ~seed:56) ~agents:3
      ~mean_op_gap:(Sim_time.of_millis 300.)
  in
  Sim.start sim;

  let m = Engine.metrics eng in
  for minute = 1 to 5 do
    Sim.run_for sim (Sim_time.of_minutes 1.);
    say "";
    say "== t = %d min, %d mutator ops so far ==" minute (Churn.ops_done churn);
    say "%a" Report.pp_summary eng;
    say "oracle: %s" (Report.garbage_overview eng);
    say "spans: %d recorded, %d still open" (Tracer.span_count tracer)
      (Tracer.open_count tracer);
    pp_hist m "back.latency_ms";
    pp_hist m "back.frames_per_trace";
    pp_hist m "trace.outset_memo_hit_rate"
  done;

  say "";
  say "Stopping the mutators and letting the collector finish...";
  Churn.stop churn;
  ignore (Sim.collect_all sim ~max_rounds:60 ());
  say "oracle: %s" (Report.garbage_overview eng);

  (* Why-not-collected audit: every garbage component that survived
     gets a verdict backed by span/journal/state evidence. *)
  let audit = Obs.Audit.run sim.Sim.col in
  say "%a" Obs.Audit.pp audit;

  (* Audit: converged state must satisfy the paper's invariants. *)
  Scenario.settle sim ~rounds:6;
  (match Invariants.strings (Invariants.check_all eng) with
  | [] -> say "invariant audit: all of §6's invariants hold"
  | vs ->
      say "invariant audit: %d violations!" (List.length vs);
      List.iter (fun v -> say "  %s" v) vs;
      (* The journal tail is the first diagnostic an operator reads. *)
      (match Engine.journal eng with
      | Some j ->
          List.iter
            (fun e -> say "  | %a" Journal.pp_entry e)
            (Journal.entries ~last:15 j)
      | None -> ()));
  (match Dgc_oracle.Oracle.table_violations eng with
  | [] -> say "table integrity: ok"
  | vs -> say "table integrity: %d violations" (List.length vs));

  let write_text path text =
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)
  in
  let dot_path = Filename.temp_file "dgc_observatory" ".dot" in
  write_text dot_path (Report.to_dot eng);
  let spans_path = Filename.temp_file "dgc_observatory" ".jsonl" in
  write_text spans_path (Tracer.to_jsonl tracer);
  let chrome_path = Filename.temp_file "dgc_observatory" ".json" in
  Json.write_file ~path:chrome_path (Tracer.to_chrome tracer);
  say "";
  say "Final object graph written to %s (render with `dot -Tsvg`)." dot_path;
  say "Span log written to %s (JSONL) and %s (Chrome trace-event; load \
       in ui.perfetto.dev)."
    spans_path chrome_path;
  say "Session: %d msgs, %d local traces, %d objects freed, %d back traces, \
       %d spans."
    (Metrics.get m "msg.total")
    (Metrics.get m "gc.local_traces")
    (Metrics.get m "gc.objects_freed")
    (Metrics.get m "back.traces_started")
    (Tracer.span_count tracer)
