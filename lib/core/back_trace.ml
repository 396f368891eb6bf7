open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts
module Tel = Dgc_telemetry

type Protocol.ext +=
  | Back_call of {
      trace : Trace_id.t;
      r : Oid.t;
      reply_site : Site_id.t;
      reply_frame : int;
      call_seq : int;
    }
  | Back_reply of {
      trace : Trace_id.t;
      reply_frame : int;
      call_seq : int;
      verdict : Verdict.t;
      participants : Site_id.Set.t;
    }
  | Back_report of { trace : Trace_id.t; outcome : Verdict.t }

let () =
  Protocol.register_ext_kind (function
    | Back_call _ -> Some "back_call"
    | Back_reply _ -> Some "back_reply"
    | Back_report _ -> Some "back_report"
    | _ -> None)

module Int_set = Set.Make (Int)

type parent =
  | P_initiator
  | P_local of int
  | P_remote of { site : Site_id.t; frame : int; call_seq : int }

type frame = {
  fr_id : int;
  fr_trace : Trace_id.t;
  fr_parent : parent;
  fr_ioref : Oid.t;
  fr_kind : string;  (** ["frame.local"] or ["frame.remote"] *)
  fr_started : Sim_time.t;
  mutable fr_pending : int;
  mutable fr_result : Verdict.t;
  mutable fr_participants : Site_id.Set.t;
  mutable fr_done : bool;
  mutable fr_calls : Int_set.t;
  mutable fr_span : int;  (** telemetry span id, [-1] when untraced *)
}

type site_state = {
  ss_site : Site.t;
  frames : (int, frame) Hashtbl.t;
  mutable next_frame : int;
  mutable next_call : int;
  mutable next_trace : int;
  (* iorefs this site has marked visited, per trace, for the report
     phase and the TTL cleanup *)
  visited_refs : (Trace_id.t, Oid.t list ref) Hashtbl.t;
  (* Receiver-side idempotency memo for at-least-once [Back_call]
     delivery, keyed by (trace, caller site, caller call seq) — the
     nonce the caller minted for the call. [None] while the call is
     still being traced (a duplicate is ignored; the eventual reply
     answers both copies); [Some reply] afterwards (a duplicate
     replays the cached reply verbatim). Entries are dropped when the
     trace's outcome report arrives, and the FIFO bounds the table
     when reports are lost. *)
  call_memo : (Trace_id.t * Site_id.t * int, Protocol.ext option) Hashtbl.t;
  memo_fifo : (Trace_id.t * Site_id.t * int) Queue.t;
}

type trace_stat = {
  ts_initiator : Site_id.t;
  ts_root : Oid.t;
  ts_started : Sim_time.t;
  mutable ts_span : int option;
  mutable ts_msgs : int;
  mutable ts_call_msgs : int;
  mutable ts_call_bytes : int;
  mutable ts_reply_msgs : int;
  mutable ts_reply_bytes : int;
  mutable ts_report_msgs : int;
  mutable ts_report_bytes : int;
  mutable ts_calls : int;
  mutable ts_frames : int;
  mutable ts_retries : int;
  mutable ts_memo_hits : int;
  mutable ts_timeouts : int;
  mutable ts_reports : int;
  mutable ts_participants : Site_id.Set.t;
  mutable ts_outcome : (Verdict.t * Sim_time.t) option;
}

(* A message span's key: the trace, the endpoints (site ints, sender
   first) and the caller's call seq, or the participant a report goes
   to. *)
type msg_key =
  | K_call of Trace_id.t * int * int * int
  | K_reply of Trace_id.t * int * int * int
  | K_report of Trace_id.t * int

type shared = {
  eng : Engine.t;
  states : site_state array;
  tstats : (Trace_id.t, trace_stat) Hashtbl.t;
  (* telemetry: in-flight message spans *)
  m_spans : (msg_key, int) Hashtbl.t;
  mutable observers : (Trace_id.t -> Verdict.t -> Site_id.Set.t -> unit) list;
  (* live totals behind the [back.in_flight] / [back.frames_held]
     gauge series; counting here keeps the samples O(1) *)
  mutable in_flight : int;
  mutable frames_held : int;
  (* list cells held in every site's [visited_refs], kept by
     [record_visit] and [apply_report] for [approx_bytes] *)
  mutable visited_cells : int;
  (* metric handles, each registered on first record *)
  back_msgs : int ref Lazy.t;
  in_flight_gauge : Tel.Series.series Lazy.t;
  frames_gauge : Tel.Series.series Lazy.t;
}

let create eng =
  let series = Engine.series eng in
  {
    eng;
    states =
      Array.map
        (fun s ->
          {
            ss_site = s;
            frames = Hashtbl.create 16;
            next_frame = 0;
            next_call = 0;
            next_trace = 0;
            visited_refs = Hashtbl.create 8;
            call_memo = Hashtbl.create 32;
            memo_fifo = Queue.create ();
          })
        (Engine.sites eng);
    tstats = Hashtbl.create 16;
    m_spans = Hashtbl.create 32;
    observers = [];
    in_flight = 0;
    frames_held = 0;
    visited_cells = 0;
    back_msgs = lazy (Metrics.counter_ref (Engine.metrics eng) "back.msgs");
    in_flight_gauge =
      lazy (Tel.Series.series_ref series "back.in_flight" ~kind:Gauge);
    frames_gauge =
      lazy (Tel.Series.series_ref series "back.frames_held" ~kind:Gauge);
  }

let set_gauge sh g v =
  Tel.Series.set_to (Lazy.force g)
    ~at:(Sim_time.to_seconds (Engine.now sh.eng))
    (float_of_int v)

let gauge_in_flight sh d =
  sh.in_flight <- sh.in_flight + d;
  set_gauge sh sh.in_flight_gauge sh.in_flight

let gauge_frames sh d =
  sh.frames_held <- sh.frames_held + d;
  set_gauge sh sh.frames_gauge sh.frames_held

let state sh id = sh.states.(Site_id.to_int id)
let on_outcome sh f = sh.observers <- f :: sh.observers

let bump_stat sh trace f =
  match Hashtbl.find_opt sh.tstats trace with Some s -> f s | None -> ()

let send_back sh ~src ~dst trace ext =
  let payload = Protocol.Ext ext in
  bump_stat sh trace (fun s ->
      let b = Protocol.approx_bytes payload in
      s.ts_msgs <- s.ts_msgs + 1;
      match ext with
      | Back_call _ ->
          s.ts_call_msgs <- s.ts_call_msgs + 1;
          s.ts_call_bytes <- s.ts_call_bytes + b
      | Back_reply _ ->
          s.ts_reply_msgs <- s.ts_reply_msgs + 1;
          s.ts_reply_bytes <- s.ts_reply_bytes + b
      | _ ->
          s.ts_report_msgs <- s.ts_report_msgs + 1;
          s.ts_report_bytes <- s.ts_report_bytes + b);
  incr (Lazy.force sh.back_msgs);
  Engine.send sh.eng ~src ~dst payload

(* Cap on memoized calls per site: entries normally die with the
   trace's report, but a lost report would otherwise leak them. *)
let memo_cap = 8192

let memo_add st key v =
  if not (Hashtbl.mem st.call_memo key) then begin
    Queue.push key st.memo_fifo;
    if Queue.length st.memo_fifo > memo_cap then
      Hashtbl.remove st.call_memo (Queue.pop st.memo_fifo)
  end;
  Hashtbl.replace st.call_memo key v

let self_id st = st.ss_site.Site.id
let tables st = st.ss_site.Site.tables
let delta sh = (Engine.config sh.eng).Config.delta
let bump sh = (Engine.config sh.eng).Config.threshold_bump

(* ---- telemetry ------------------------------------------------------- *)

(* Span vocabulary (DESIGN.md "Observability"): [back_trace] is the
   root, [frame.local]/[frame.remote] are §4.4 activation frames,
   [leap.call]/[leap.reply] are the §4.4 messages between them,
   [report] is the §4.5 outcome fan-out, and the [timeout.*] events
   are §4.6's silence-means-Live decisions. *)

let tracer sh = Engine.tracer sh.eng
let tkey = Trace_id.to_string
let now_s sh = Sim_time.to_seconds (Engine.now sh.eng)
let jint i = Tel.Json.Int i
let jstr s = Tel.Json.Str s
let jsite id = jint (Site_id.to_int id)

let call_key trace ~caller ~callee seq =
  K_call (trace, Site_id.to_int caller, Site_id.to_int callee, seq)

let reply_key trace ~replier ~target seq =
  K_reply (trace, Site_id.to_int replier, Site_id.to_int target, seq)

let report_key trace participant =
  K_report (trace, Site_id.to_int participant)

(* Stable labels for the §4.6 timers, shared with the sanitizer's
   armed-timer registry (a lost-trace verdict cites them). *)
let timer_key_call trace ~site seq =
  Printf.sprintf "back_call/%s/%d/%d" (tkey trace) (Site_id.to_int site) seq

let timer_key_ttl trace ~site =
  Printf.sprintf "visited_ttl/%s/%d" (tkey trace) (Site_id.to_int site)

let root_span sh trace =
  Option.bind (Hashtbl.find_opt sh.tstats trace) (fun s -> s.ts_span)

let frame_span fr = if fr.fr_span >= 0 then Some fr.fr_span else None

(* The span of the activation that issued this parent link: the local
   caller frame, the leap that carried the remote call, or the trace
   root for the initiator's first step. *)
let parent_span sh st trace parent =
  let frame_span_of st id =
    Option.bind (Hashtbl.find_opt st.frames id) frame_span
  in
  let span =
    match parent with
    | P_initiator -> None
    | P_local pid -> frame_span_of st pid
    | P_remote { site; frame; call_seq } -> (
        match
          Hashtbl.find_opt sh.m_spans
            (call_key trace ~caller:site ~callee:(self_id st) call_seq)
        with
        | Some id -> Some id
        | None -> frame_span_of (state sh site) frame)
  in
  match span with Some _ -> span | None -> root_span sh trace

let tkey_of_key = function
  | K_call (t, _, _, _) | K_reply (t, _, _, _) | K_report (t, _) -> tkey t

(* A message span's key, parent and attributes come from a thunk that
   runs only when a tracer is attached: untraced runs build none of
   their strings. *)
let start_msg_span sh ~name ~site span =
  match tracer sh with
  | None -> ()
  | Some tr ->
      let key, parent, attrs = span () in
      let id =
        Tel.Tracer.start_span tr ?parent ~trace:(tkey_of_key key)
          ~name ~site ~at:(now_s sh) attrs
      in
      Hashtbl.replace sh.m_spans key id

let finish_msg_span sh key attrs =
  match tracer sh with
  | None -> ()
  | Some tr -> (
      match Hashtbl.find_opt sh.m_spans key with
      | Some id -> Tel.Tracer.finish_span tr id ~at:(now_s sh) attrs
      | None -> ())

let finish_frame_span sh fr attrs =
  match tracer sh with
  | None -> ()
  | Some tr ->
      if fr.fr_span >= 0 then
        Tel.Tracer.finish_span tr fr.fr_span ~at:(now_s sh) attrs

(* A point event (a §4.6 timeout, the clean rule); like a message span,
   its parent and attributes come from a thunk run only when traced. *)
let trace_event sh ~name ~site trace event =
  match tracer sh with
  | None -> ()
  | Some tr ->
      let parent, attrs = event () in
      ignore
        (Tel.Tracer.event tr ?parent ~trace:(tkey trace) ~name
           ~site:(Site_id.to_int site) ~at:(now_s sh) attrs)

(* The §4.6 retry schedule: attempt [k] waits timeout·2^k. *)
let backoff sh k =
  let cfg = Engine.config sh.eng in
  Sim_time.of_seconds
    (Sim_time.to_seconds cfg.Config.back_call_timeout *. (2. ** float_of_int k))

let new_frame sh st trace parent ioref ~kind =
  let fr =
    {
      fr_id = st.next_frame;
      fr_trace = trace;
      fr_parent = parent;
      fr_ioref = ioref;
      fr_kind = kind;
      fr_started = Engine.now sh.eng;
      fr_pending = 0;
      fr_result = Verdict.Garbage;
      fr_participants = Site_id.Set.empty;
      fr_done = false;
      fr_calls = Int_set.empty;
      fr_span = -1;
    }
  in
  st.next_frame <- st.next_frame + 1;
  Hashtbl.add st.frames fr.fr_id fr;
  gauge_frames sh 1;
  bump_stat sh trace (fun s -> s.ts_frames <- s.ts_frames + 1);
  Engine.profile_work sh.eng "frames" 1;
  (match tracer sh with
  | None -> ()
  | Some tr ->
      let attrs =
        [ ("ref", jstr (Oid.to_string ioref)) ]
        @
        match parent with
        | P_remote { site; _ } -> [ ("caller_site", jsite site) ]
        | P_initiator | P_local _ -> []
      in
      fr.fr_span <-
        Tel.Tracer.start_span tr
          ?parent:(parent_span sh st trace parent)
          ~trace:(tkey trace) ~name:kind
          ~site:(Site_id.to_int (self_id st))
          ~at:(now_s sh) attrs);
  fr

(* A frame ends once: finished with a verdict, or aborted by the
   trace's report. *)
let close_frame sh st fr attrs =
  fr.fr_done <- true;
  Hashtbl.remove st.frames fr.fr_id;
  gauge_frames sh (-1);
  finish_frame_span sh fr attrs

(* The whole message-driven machine is one recursive knot: finishing a
   frame feeds its parent, which may finish in turn, up to the
   initiator's report phase. *)
let rec finish sh st fr v =
  if not fr.fr_done then begin
    close_frame sh st fr [ ("verdict", jstr (Verdict.to_string v)) ];
    answer sh st ~frame:fr fr.fr_trace fr.fr_parent v
      (Site_id.Set.add (self_id st) fr.fr_participants)
  end

and child_done sh st fr v parts =
  if not fr.fr_done then begin
    fr.fr_participants <- Site_id.Set.union fr.fr_participants parts;
    fr.fr_result <- Verdict.merge fr.fr_result v;
    fr.fr_pending <- fr.fr_pending - 1;
    match v with
    | Verdict.Live ->
        (* Live short-circuits the frame (§4.4's early return). *)
        finish sh st fr Verdict.Live
    | Verdict.Garbage ->
        if fr.fr_pending <= 0 then finish sh st fr fr.fr_result
  end

(* A step that opens no frame answers its parent at once. *)
and return_to sh st trace parent v =
  answer sh st trace parent v (Site_id.Set.singleton (self_id st))

(* Hand a verdict to its parent: the local caller frame, the remote
   caller (§4.4's one reply per call, memoized for duplicates), or the
   initiator. The reply span hangs under the finished [frame], else
   under the call's leap. *)
and answer sh st ?frame trace parent v parts =
  match parent with
  | P_local pid -> begin
      match Hashtbl.find_opt st.frames pid with
      | Some p -> child_done sh st p v parts
      | None -> ()
    end
  | P_remote { site; frame = reply_frame; call_seq } ->
      start_msg_span sh ~name:"leap.reply"
        ~site:(Site_id.to_int (self_id st))
        (fun () ->
          ( reply_key trace ~replier:(self_id st) ~target:site call_seq,
            (match frame with
            | Some fr -> frame_span fr
            | None ->
                Hashtbl.find_opt sh.m_spans
                  (call_key trace ~caller:site ~callee:(self_id st) call_seq)),
            [
              ("src", jsite (self_id st));
              ("dst", jsite site);
              ("verdict", jstr (Verdict.to_string v));
            ] ));
      let reply =
        Back_reply
          { trace; reply_frame; call_seq; verdict = v; participants = parts }
      in
      memo_add st (trace, site, call_seq) (Some reply);
      send_back sh ~src:(self_id st) ~dst:site trace reply
  | P_initiator -> conclude sh st trace v parts

(* A trace concludes once, when the initiator's root frame finishes:
   its record keeps the first outcome, and a second conclusion, were
   one to come, would neither re-count the outcome nor re-report it. *)
and conclude sh st trace outcome parts =
  match Hashtbl.find_opt sh.tstats trace with
  | Some ({ ts_outcome = None; _ } as s) ->
      conclude_first sh st s trace outcome parts
  | Some _ | None -> ()

and conclude_first sh st s trace outcome parts =
  Engine.jlog sh.eng ~cat:"back" "%a concluded %a (%d participants)"
    Trace_id.pp trace Verdict.pp outcome (Site_id.Set.cardinal parts);
  let metrics = Engine.metrics sh.eng in
  Metrics.incr metrics
    (match outcome with
    | Verdict.Garbage -> "back.outcome_garbage"
    | Verdict.Live -> "back.outcome_live");
  gauge_in_flight sh (-1);
  s.ts_outcome <- Some (outcome, Engine.now sh.eng);
  s.ts_participants <- parts;
  let lat_ms =
    1000. *. Sim_time.to_seconds (Sim_time.sub (Engine.now sh.eng) s.ts_started)
  in
  Metrics.hist_observe metrics "back.latency_ms" lat_ms;
  Metrics.hist_observe metrics
    (Site.metric_label (Engine.site sh.eng s.ts_initiator) "back.latency_ms")
    lat_ms;
  Metrics.hist_observe metrics "back.frames_per_trace"
    (float_of_int s.ts_frames);
  Metrics.hist_observe metrics "back.msgs_per_trace" (float_of_int s.ts_msgs);
  (match tracer sh with
  | None -> ()
  | Some tr -> (
      match root_span sh trace with
      | Some id ->
          Tel.Tracer.finish_span tr id ~at:(now_s sh)
            [
              ("outcome", jstr (Verdict.to_string outcome));
              ("participants", jint (Site_id.Set.cardinal parts));
            ]
      | None -> ()));
  List.iter (fun f -> f trace outcome parts) sh.observers;
  (* Report phase (§4.5): inform every participant. *)
  Site_id.Set.iter
    (fun p ->
      if not (Site_id.equal p (self_id st)) then begin
        start_msg_span sh ~name:"report"
          ~site:(Site_id.to_int (self_id st))
          (fun () ->
            ( report_key trace p,
              root_span sh trace,
              [
                ("src", jsite (self_id st));
                ("dst", jsite p);
                ("outcome", jstr (Verdict.to_string outcome));
              ] ));
        s.ts_reports <- s.ts_reports + 1;
        send_back sh ~src:(self_id st) ~dst:p trace
          (Back_report { trace; outcome })
      end)
    parts;
  (let cfg = Engine.config sh.eng in
   if cfg.Config.retry_limit > 0 then begin
     (* Blind redundancy for the §4.5 fan-out: the protocol has no
        report acks, but [apply_report] is idempotent, so re-sending
        each report on the retry schedule means a dropped copy no
        longer strands participants until the visited TTL. *)
     Site_id.Set.iter
       (fun p ->
         if not (Site_id.equal p (self_id st)) then
           for k = 1 to cfg.Config.retry_limit do
             Engine.schedule sh.eng ~delay:(backoff sh (k - 1)) (fun () ->
                 Metrics.incr (Engine.metrics sh.eng) "retry.back_report";
                 Engine.series_incr sh.eng "retry.back_report";
                 s.ts_retries <- s.ts_retries + 1;
                 send_back sh ~src:(self_id st) ~dst:p trace
                   (Back_report { trace; outcome }))
           done)
       parts
   end);
  apply_report sh st trace outcome

and apply_report sh st trace outcome =
  (match Hashtbl.find_opt st.visited_refs trace with
  | None -> ()
  | Some l ->
      Hashtbl.remove st.visited_refs trace;
      sh.visited_cells <- sh.visited_cells - List.length !l;
      List.iter
        (fun r ->
          if Site_id.equal (Oid.site r) (self_id st) then begin
            match Tables.find_inref (tables st) r with
            | None -> ()
            | Some ir ->
                Tables.unvisit_inref (tables st) ir trace;
                if Verdict.equal outcome Verdict.Garbage then begin
                  Tables.flag_inref (tables st) ir;
                  Metrics.incr (Engine.metrics sh.eng) "back.inrefs_flagged";
                  Engine.jlog sh.eng ~cat:"back" "inref %a flagged garbage"
                    Oid.pp r
                end
          end
          else
            match Tables.find_outref (tables st) r with
            | None -> ()
            | Some o ->
                Tables.unvisit_outref (tables st) o trace)
        !l);
  (* Abort any leftover frames of this trace at this site. *)
  Hashtbl.fold
    (fun _ fr acc ->
      if Trace_id.equal fr.fr_trace trace then fr :: acc else acc)
    st.frames []
  |> List.iter (fun fr ->
         close_frame sh st fr [ ("aborted", Tel.Json.Bool true) ]);
  (* The trace is settled at this site: forget its call memo (any
     further duplicates are stale and will be re-answered from the
     tables, which now reflect the outcome). *)
  let stale_memo =
    Hashtbl.fold
      (fun ((tr, _, _) as k) _ acc ->
        if Trace_id.equal tr trace then k :: acc else acc)
      st.call_memo []
  in
  List.iter (Hashtbl.remove st.call_memo) stale_memo

and record_visit sh st trace r =
  sh.visited_cells <- sh.visited_cells + 1;
  match Hashtbl.find_opt st.visited_refs trace with
  | Some l -> l := r :: !l
  | None ->
      let l = ref [ r ] in
      Hashtbl.add st.visited_refs trace l;
      let cfg = Engine.config sh.eng in
      let ttl = cfg.Config.visited_ttl in
      (* With retries enabled the §4.6 give-up can land well after the
         configured TTL; stretch the TTL past the whole backoff
         schedule so a retried call can still settle the trace instead
         of being aborted under it. Single-shot runs keep the exact
         configured TTL (and their event stream). *)
      let ttl =
        if cfg.Config.retry_limit <= 0 then ttl
        else begin
          let span =
            ref (Sim_time.to_seconds cfg.Config.back_call_timeout)
          in
          for k = 0 to cfg.Config.retry_limit do
            span := !span +. Sim_time.to_seconds (backoff sh k)
          done;
          if Sim_time.(ttl < Sim_time.of_seconds !span) then
            Sim_time.of_seconds !span
          else ttl
        end
      in
      if not cfg.Config.enable_timeouts then ()
      else
      Engine.schedule sh.eng
        ~label:(fun () -> (self_id st, timer_key_ttl trace ~site:(self_id st)))
        ~delay:ttl (fun () ->
          if Hashtbl.mem st.visited_refs trace then begin
            (* Never heard the outcome: assume Live (§4.6). *)
            Metrics.incr (Engine.metrics sh.eng) "back.visited_ttl_expired";
            bump_stat sh trace (fun s -> s.ts_timeouts <- s.ts_timeouts + 1);
            trace_event sh ~name:"timeout.visited_ttl" ~site:(self_id st)
              trace (fun () -> (root_span sh trace, []));
            apply_report sh st trace Verdict.Live
          end)

(* BackStepLocal (§4.4): [r] names an outref of this site. *)
and step_local sh st trace r parent =
  match Tables.find_outref (tables st) r with
  | None ->
      (* ioref deleted by the collector: garbage. *)
      return_to sh st trace parent Verdict.Garbage
  | Some o ->
      if Ioref.outref_clean o then return_to sh st trace parent Verdict.Live
      else if Trace_id.Set.mem trace o.Ioref.or_visited then
        return_to sh st trace parent Verdict.Garbage
      else begin
        Tables.visit_outref (tables st) o trace;
        o.Ioref.or_back_threshold <- o.Ioref.or_back_threshold + bump sh;
        record_visit sh st trace r;
        let fr = new_frame sh st trace parent r ~kind:"frame.local" in
        match o.Ioref.or_inset with
        | [] -> finish sh st fr Verdict.Garbage
        | inset ->
            fr.fr_pending <- List.length inset;
            List.iter
              (fun i -> step_remote sh st trace i (P_local fr.fr_id))
              inset
      end

(* BackStepRemote (§4.4): [i] names an inref of this site; branch
   calls go to every source site in parallel. *)
and step_remote sh st trace i parent =
  match Tables.find_inref (tables st) i with
  | None -> return_to sh st trace parent Verdict.Garbage
  | Some ir ->
      if ir.Ioref.ir_flagged then
        (* Already confirmed garbage by an earlier trace. *)
        return_to sh st trace parent Verdict.Garbage
      else if Ioref.inref_clean ~delta:(delta sh) ir then
        return_to sh st trace parent Verdict.Live
      else if Trace_id.Set.mem trace ir.Ioref.ir_visited then
        return_to sh st trace parent Verdict.Garbage
      else begin
        Tables.visit_inref (tables st) ir trace;
        ir.Ioref.ir_back_threshold <- ir.Ioref.ir_back_threshold + bump sh;
        record_visit sh st trace i;
        let fr = new_frame sh st trace parent i ~kind:"frame.remote" in
        match Ioref.source_sites ir with
        | [] -> finish sh st fr Verdict.Garbage
        | sources ->
            fr.fr_pending <- List.length sources;
            List.iter
              (fun q ->
                let seq = st.next_call in
                st.next_call <- seq + 1;
                fr.fr_calls <- Int_set.add seq fr.fr_calls;
                bump_stat sh trace (fun s -> s.ts_calls <- s.ts_calls + 1);
                start_msg_span sh ~name:"leap.call"
                  ~site:(Site_id.to_int (self_id st))
                  (fun () ->
                    ( call_key trace ~caller:(self_id st) ~callee:q seq,
                      frame_span fr,
                      [
                        ("src", jsite (self_id st));
                        ("dst", jsite q);
                        ("ref", jstr (Oid.to_string i));
                      ] ));
                let send_call () =
                  send_back sh ~src:(self_id st) ~dst:q trace
                    (Back_call
                       {
                         trace;
                         r = i;
                         reply_site = self_id st;
                         reply_frame = fr.fr_id;
                         call_seq = seq;
                       })
                in
                let cfg = Engine.config sh.eng in
                (* Attempt [k] waits timeout·backoff^k, then either
                   re-sends the call (k < retry_limit — the receiver
                   memo makes duplicates harmless) or finally assumes
                   Live (§4.6). [retry_limit = 0] is the paper's
                   single-shot timeout, event-for-event. *)
                let rec arm attempt =
                  Engine.schedule sh.eng
                    ~label:(fun () ->
                      (self_id st, timer_key_call trace ~site:(self_id st) seq))
                    ~delay:(backoff sh attempt) (fun () ->
                      match Hashtbl.find_opt st.frames fr.fr_id with
                      | Some fr'
                        when (not fr'.fr_done) && Int_set.mem seq fr'.fr_calls
                        ->
                          if attempt < cfg.Config.retry_limit then begin
                            Metrics.incr (Engine.metrics sh.eng)
                              "retry.back_call";
                            Engine.series_incr sh.eng "retry.back_call";
                            bump_stat sh trace (fun s ->
                                s.ts_retries <- s.ts_retries + 1);
                            Engine.jlog sh.eng ~level:Journal.Debug
                              ~cat:"retry"
                              "%a call %d to %a unanswered: retry %d/%d"
                              Trace_id.pp trace seq Site_id.pp q (attempt + 1)
                              cfg.Config.retry_limit;
                            send_call ();
                            arm (attempt + 1)
                          end
                          else begin
                            fr'.fr_calls <- Int_set.remove seq fr'.fr_calls;
                            (* No reply: assume Live (§4.6). *)
                            if cfg.Config.retry_limit > 0 then
                              Metrics.incr (Engine.metrics sh.eng)
                                "retry.exhausted";
                            Metrics.incr (Engine.metrics sh.eng)
                              "back.call_timeout";
                            bump_stat sh trace (fun s ->
                                s.ts_timeouts <- s.ts_timeouts + 1);
                            finish_msg_span sh
                              (call_key trace ~caller:(self_id st) ~callee:q
                                 seq)
                              [ ("timeout", Tel.Json.Bool true) ];
                            trace_event sh ~name:"timeout.call"
                              ~site:(self_id st) trace (fun () ->
                                (frame_span fr', [ ("dst", jsite q) ]));
                            child_done sh st fr' Verdict.Live
                              Site_id.Set.empty
                          end
                      | _ -> ())
                in
                send_call ();
                (* The [enable_timeouts] ablation plants the lost-trace
                   defect: the call goes out but silence is never read
                   as Live, so a crashed callee strands this frame (and
                   the memo entries behind it) forever. *)
                if cfg.Config.enable_timeouts then arm 0)
              sources
      end

let start sh site_id outref =
  let st = state sh site_id in
  match Tables.find_outref (tables st) outref with
  | Some o when not (Ioref.outref_clean o) ->
      let trace = Trace_id.make ~initiator:site_id ~seq:st.next_trace in
      st.next_trace <- st.next_trace + 1;
      let s =
        {
          ts_initiator = site_id;
          ts_root = outref;
          ts_started = Engine.now sh.eng;
          ts_span = None;
          ts_msgs = 0;
          ts_call_msgs = 0;
          ts_call_bytes = 0;
          ts_reply_msgs = 0;
          ts_reply_bytes = 0;
          ts_report_msgs = 0;
          ts_report_bytes = 0;
          ts_calls = 0;
          ts_frames = 0;
          ts_retries = 0;
          ts_memo_hits = 0;
          ts_timeouts = 0;
          ts_reports = 0;
          ts_participants = Site_id.Set.empty;
          ts_outcome = None;
        }
      in
      Hashtbl.replace sh.tstats trace s;
      Metrics.incr (Engine.metrics sh.eng) "back.traces_started";
      gauge_in_flight sh 1;
      (match tracer sh with
      | None -> ()
      | Some tr ->
          s.ts_span <-
            Some
              (Tel.Tracer.start_span tr ~trace:(tkey trace) ~name:"back_trace"
                 ~site:(Site_id.to_int site_id) ~at:(now_s sh)
                 [ ("root", jstr (Oid.to_string outref)) ]));
      Engine.jlog sh.eng ~cat:"back" "%a started from outref %a" Trace_id.pp
        trace Oid.pp outref;
      step_local sh st trace outref P_initiator;
      Some trace
  | Some _ | None -> None

let handle_ext sh site_id ~src ext =
  let st = state sh site_id in
  match ext with
  | Back_call { trace; r; reply_site; reply_frame; call_seq } ->
      finish_msg_span sh
        (call_key trace ~caller:reply_site ~callee:site_id call_seq)
        [];
      let key = (trace, reply_site, call_seq) in
      (match Hashtbl.find_opt st.call_memo key with
      | Some (Some reply) ->
          (* Duplicate of a call already answered: replay the cached
             reply verbatim (at-least-once delivery, exactly-once
             tracing). *)
          Metrics.incr (Engine.metrics sh.eng) "back.call_replayed";
          bump_stat sh trace (fun s -> s.ts_memo_hits <- s.ts_memo_hits + 1);
          Engine.jlog sh.eng ~level:Journal.Debug ~cat:"back"
            "%a duplicate call %d from %a: replaying cached reply"
            Trace_id.pp trace call_seq Site_id.pp reply_site;
          send_back sh ~src:site_id ~dst:reply_site trace reply
      | Some None ->
          (* Duplicate of a call still being traced: the eventual
             reply answers both copies. *)
          Metrics.incr (Engine.metrics sh.eng) "back.dup_call_ignored";
          bump_stat sh trace (fun s -> s.ts_memo_hits <- s.ts_memo_hits + 1);
          Engine.jlog sh.eng ~level:Journal.Debug ~cat:"back"
            "%a duplicate call %d from %a ignored (in progress)"
            Trace_id.pp trace call_seq Site_id.pp reply_site
      | None ->
          memo_add st key None;
          step_local sh st trace r
            (P_remote { site = reply_site; frame = reply_frame; call_seq }));
      true
  | Back_reply { trace; reply_frame; call_seq; verdict; participants } ->
      finish_msg_span sh
        (reply_key trace ~replier:src ~target:site_id call_seq)
        [];
      (match Hashtbl.find_opt st.frames reply_frame with
      | Some fr when Int_set.mem call_seq fr.fr_calls ->
          fr.fr_calls <- Int_set.remove call_seq fr.fr_calls;
          child_done sh st fr verdict participants
      | Some _ | None -> ());
      true
  | Back_report { trace; outcome } ->
      finish_msg_span sh (report_key trace site_id) [];
      apply_report sh st trace outcome;
      true
  | _ -> false

let on_cleaned sh site_id r =
  if (Engine.config sh.eng).Config.enable_clean_rule then begin
    let st = state sh site_id in
    let hits =
      Hashtbl.fold
        (fun _ fr acc ->
          if (not fr.fr_done) && Oid.equal fr.fr_ioref r then fr :: acc
          else acc)
        st.frames []
    in
    List.iter
      (fun fr ->
        Metrics.incr (Engine.metrics sh.eng) "back.clean_rule_fired";
        trace_event sh ~name:"clean_rule" ~site:site_id fr.fr_trace
          (fun () -> (frame_span fr, [ ("ref", jstr (Oid.to_string r)) ]));
        finish sh st fr Verdict.Live)
      hits
  end

let active_frames sh site_id = Hashtbl.length (state sh site_id).frames

type parent_info =
  | Pi_initiator
  | Pi_local of int
  | Pi_remote of { site : Site_id.t; frame : int; call_seq : int }

type frame_info = {
  fi_id : int;
  fi_trace : Trace_id.t;
  fi_ioref : Oid.t;
  fi_kind : string;
  fi_pending : int;
  fi_started : Sim_time.t;
  fi_span : int option;
  fi_parent : parent_info;
  fi_calls : int list;
}

let open_frames sh site_id =
  Hashtbl.fold
    (fun _ fr acc ->
      if fr.fr_done then acc
      else
        {
          fi_id = fr.fr_id;
          fi_trace = fr.fr_trace;
          fi_ioref = fr.fr_ioref;
          fi_kind = fr.fr_kind;
          fi_pending = fr.fr_pending;
          fi_started = fr.fr_started;
          fi_span = frame_span fr;
          fi_parent =
            (match fr.fr_parent with
            | P_initiator -> Pi_initiator
            | P_local id -> Pi_local id
            | P_remote { site; frame; call_seq } ->
                Pi_remote { site; frame; call_seq });
          fi_calls = Int_set.elements fr.fr_calls;
        }
        :: acc)
    (state sh site_id).frames []
  |> List.sort (fun a b -> Int.compare a.fi_id b.fi_id)

type residue = { rs_frames : int; rs_memo : int; rs_visited : int }

let residue sh =
  let acc : (Trace_id.t, (Site_id.t * residue) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  Array.iter
    (fun st ->
      let per : (Trace_id.t, residue) Hashtbl.t = Hashtbl.create 8 in
      let bump tr f =
        let r =
          Option.value
            (Hashtbl.find_opt per tr)
            ~default:{ rs_frames = 0; rs_memo = 0; rs_visited = 0 }
        in
        Hashtbl.replace per tr (f r)
      in
      Hashtbl.iter
        (fun _ fr ->
          if not fr.fr_done then
            bump fr.fr_trace (fun r -> { r with rs_frames = r.rs_frames + 1 }))
        st.frames;
      Hashtbl.iter
        (fun (tr, _, _) _ ->
          bump tr (fun r -> { r with rs_memo = r.rs_memo + 1 }))
        st.call_memo;
      Hashtbl.iter
        (fun tr l ->
          bump tr (fun r ->
              { r with rs_visited = r.rs_visited + List.length !l }))
        st.visited_refs;
      Hashtbl.iter
        (fun tr r ->
          match Hashtbl.find_opt acc tr with
          | Some l -> l := (self_id st, r) :: !l
          | None -> Hashtbl.add acc tr (ref [ (self_id st, r) ]))
        per)
    sh.states;
  Hashtbl.fold
    (fun tr l out ->
      ( tr,
        List.sort (fun (a, _) (b, _) -> Site_id.compare a b) !l )
      :: out)
    acc []
  |> List.sort (fun (a, _) (b, _) -> Trace_id.compare a b)

let stats sh =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) sh.tstats []
  |> List.sort (fun (a, _) (b, _) -> Trace_id.compare a b)

(* Fixed size model shared with [Tables.approx_bytes]: 8-byte words,
   per-record constants for frames and memo entries, list cells for
   visited refs. Covers the machinery a lost report would leak. *)
let approx_bytes sh =
  let word = 8 in
  Array.fold_left
    (fun n st ->
      n
      + (word * 18 * Hashtbl.length st.frames)
      + (word * 6 * Hashtbl.length st.call_memo))
    (word * 3 * sh.visited_cells)
    sh.states

let visited_cells sh = sh.visited_cells

let find_stat sh trace = Hashtbl.find_opt sh.tstats trace

let ledger_row trace s =
  let secs = Sim_time.to_seconds in
  {
    Dgc_profile.Ledger.e_trace = tkey trace;
    e_root = Oid.to_string s.ts_root;
    e_started = secs s.ts_started;
    e_concluded = Option.map (fun (_, at) -> secs at) s.ts_outcome;
    e_outcome =
      Option.map
        (fun (v, _) -> String.lowercase_ascii (Verdict.to_string v))
        s.ts_outcome;
    e_frames = s.ts_frames;
    e_calls = s.ts_calls;
    e_retries = s.ts_retries;
    e_memo_hits = s.ts_memo_hits;
    e_timeouts = s.ts_timeouts;
    e_reports = s.ts_reports;
    e_kinds =
      List.filter
        (fun (_, n, _) -> n > 0)
        [
          ("back_call", s.ts_call_msgs, s.ts_call_bytes);
          ("back_reply", s.ts_reply_msgs, s.ts_reply_bytes);
          ("back_report", s.ts_report_msgs, s.ts_report_bytes);
        ];
  }

let ledger_rows sh =
  let open Dgc_profile.Ledger in
  Hashtbl.fold (fun trace s acc -> ledger_row trace s :: acc) sh.tstats []
  |> List.sort (fun a b -> String.compare a.e_trace b.e_trace)
