open Dgc_simcore
open Dgc_rts
open Dgc_workload

(* Every scenario here is armed, not run: events sit in the queue and
   the explorer decides their order. Trace windows are made atomic
   (zero duration) so the §6.1 battery applies after every step; all
   other determinism comes from the seed. *)

let base_cfg =
  {
    Config.default with
    Config.trace_jitter = Sim_time.zero;
    trace_duration = Sim_time.zero;
  }

let fig1 =
  {
    Explorer.sut_name = "fig1";
    sut_desc =
      "Figure 1 (inter-site cycle f<->g plus acyclic garbage) under the \
       periodic trace schedule";
    sut_make =
      (fun () ->
        let cfg =
          {
            base_cfg with
            Config.n_sites = 3;
            delta = 3;
            threshold2 = 5;
            trace_interval = Sim_time.of_seconds 5.;
          }
        in
        let f = Scenario.fig1 ~cfg () in
        Dgc_core.Sim.start f.Scenario.f1_sim;
        Explorer.instance f.Scenario.f1_sim);
  }

let race_cfg = base_cfg

let make_race cfg () =
  let f, _outcome = Scenario.fig5_race_arm ~cfg () in
  Explorer.instance f.Scenario.f5_sim

let fig5_race =
  {
    Explorer.sut_name = "fig5-race";
    sut_desc =
      "the §6.4 race armed (mutator copy, d->e deletion, back trace from h) \
       with all barriers on — must stay clean under every interleaving";
    sut_make = make_race race_cfg;
  }

let fig5_race_broken =
  {
    Explorer.sut_name = "fig5-race-broken";
    sut_desc =
      "same race with the §6.1 transfer barrier disabled — the seeded bug the \
       explorer must catch";
    sut_make =
      make_race { race_cfg with Config.enable_transfer_barrier = false };
  }

(* --- dgc-san SUTs ------------------------------------------------------ *)

(* The sanitizer checks replace the §6.1 battery here so a violation is
   attributable to the detector under test, not to the oracle. *)

module San = Dgc_sanitize.Sanitizer

let san_instance sim =
  let san = San.install sim.Dgc_core.Sim.eng in
  San.set_shared san (Dgc_core.Collector.back sim.Dgc_core.Sim.col);
  (san, { Explorer.i_sim = sim; i_check = (fun () -> San.check san) })

let san_race_broken =
  {
    Explorer.sut_name = "san-race-broken";
    sut_desc =
      "the §6.4 race with the transfer barrier disabled, judged by the \
       happens-before race detector instead of the invariant battery — the \
       sanitizer must flag the unprotected concurrent transfer";
    sut_make =
      (fun () ->
        let cfg =
          {
            race_cfg with
            Config.enable_transfer_barrier = false;
            sanitize = true;
          }
        in
        let f, _outcome = Scenario.fig5_race_arm ~cfg () in
        snd (san_instance f.Scenario.f5_sim));
  }

let san_lost_trace =
  {
    Explorer.sut_name = "san-lost-trace";
    sut_desc =
      "a fig2 back trace with the §4.6 timeouts disabled and the callee \
       crashed while the call is in flight — the planted lost-trace leak \
       the sanitizer must prove";
    sut_make =
      (fun () ->
        let cfg =
          {
            base_cfg with
            Config.delta = 3;
            threshold2 = 6;
            threshold_bump = 4;
            enable_timeouts = false;
            sanitize = true;
          }
        in
        let f = Scenario.fig2 ~cfg () in
        let sim = f.Scenario.f2_sim in
        let eng = sim.Dgc_core.Sim.eng in
        (* force the suspected regime so a back trace can start *)
        Array.iter
          (fun s ->
            Dgc_rts.Tables.iter_inrefs s.Site.tables (fun ir ->
                List.iter
                  (fun src ->
                    Dgc_rts.Tables.set_source_dist s.Site.tables ir
                      src.Dgc_rts.Ioref.src_site ~dist:100)
                  ir.Dgc_rts.Ioref.ir_sources))
          (Engine.sites eng);
        Dgc_core.Collector.force_local_trace_all sim.Dgc_core.Sim.col;
        let _san, inst = san_instance sim in
        (* arm: the trace from outref c at Q, then crash c's owner while
           the first back call is still in flight — with no timeouts the
           initiator's frame can never settle *)
        ignore
          (Dgc_core.Collector.start_back_trace sim.Dgc_core.Sim.col
             (Dgc_heap.Oid.site f.Scenario.f2_a)
             f.Scenario.f2_c);
        Engine.schedule eng ~delay:(Sim_time.of_millis 1.) (fun () ->
            Engine.crash eng (Dgc_heap.Oid.site f.Scenario.f2_c));
        inst);
  }

let catalog = [ fig1; fig5_race; fig5_race_broken; san_race_broken; san_lost_trace ]
let find name = List.find_opt (fun s -> s.Explorer.sut_name = name) catalog
