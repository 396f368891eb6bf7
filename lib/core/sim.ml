open Dgc_simcore
open Dgc_rts

type t = { eng : Engine.t; col : Collector.t; muts : Mutator.manager }

let make ?(cfg = Config.default) () =
  let eng = Engine.create cfg in
  (* The flight recorder is always-on at the Sim layer: every path
     that can fail (campaigns, the CLI, benches) goes through [make],
     so any later [Engine.dump_flight] finds a populated ring. It
     draws no randomness, so runs stay event-identical either way. *)
  if cfg.Config.flight_capacity > 0 then
    Engine.attach_flight eng
      (Dgc_telemetry.Flight.create ~capacity:cfg.Config.flight_capacity
         ~n_sites:cfg.Config.n_sites ());
  (* Same contract as the flight recorder: the profiler draws no
     randomness and schedules no events, so runs stay event-identical
     with it on or off. *)
  if cfg.Config.profile then
    Engine.attach_profile eng (Dgc_profile.Profile.create ());
  let col = Collector.install eng in
  let muts = Mutator.manager eng in
  (match cfg.Config.check_level with
  | Config.Check_step ->
      (* Sanitizer mode: the continuously-maintained §6.1 invariants
         after every event, skipping sites mid-trace-window (§6.2). *)
      Engine.add_step_watcher eng (fun () ->
          Invariants.check_exn ~skip:(Collector.in_window col) eng)
  | Config.Check_off -> ());
  { eng; col; muts }

let check ?(settled = false) t =
  let skip = Collector.in_window t.col in
  if settled then Invariants.check_all ~skip t.eng
  else Invariants.per_step ~skip t.eng

let start t = Engine.start_gc_schedule t.eng
let run_for t d = Engine.run_for t.eng d

let run_rounds t n =
  let target = Engine.trace_rounds_completed t.eng + n in
  let interval = (Engine.config t.eng).Config.trace_interval in
  (* Step in quarter-intervals so we stop close to the target round
     rather than overshooting by several trace rounds. *)
  let chunk =
    Sim_time.of_seconds (Float.max 0.5 (Sim_time.to_seconds interval /. 4.))
  in
  let guard = ref ((16 * n) + 64) in
  while Engine.trace_rounds_completed t.eng < target && !guard > 0 do
    decr guard;
    run_for t chunk
  done

let collect_all t ?(max_rounds = 40) () =
  let rec loop n =
    if Dgc_oracle.Oracle.garbage_count t.eng = 0 then true
    else if n >= max_rounds then false
    else begin
      run_rounds t 1;
      loop (n + 1)
    end
  in
  loop 0
