open Dgc_prelude
open Dgc_simcore
open Dgc_heap
module Tel = Dgc_telemetry
module Prof = Dgc_profile.Profile

type move_wait = {
  mutable remaining : int;
  reply_to : Site_id.t;
  wait_since : Sim_time.t;  (** insert-barrier stall start (§6.1.2) *)
}

(* The engine's one observation channel: everything the protocol does
   that an observer may want to see. Subscribers run synchronously, in
   subscription order; none of them may draw engine randomness or
   schedule events, so a run is event-identical with or without them. *)
type event =
  | Send of {
      id : int;
      src : Site_id.t;
      dst : Site_id.t;
      payload : Protocol.payload;
    }
  | Deliver of {
      id : int;
      src : Site_id.t;
      dst : Site_id.t;
      payload : Protocol.payload;
    }
  | Drop of {
      id : int;
      src : Site_id.t;
      dst : Site_id.t;
      payload : Protocol.payload;
      reason : string;
    }
  | Dup of { id : int }
  | Timer_armed of {
      id : int;
      label : unit -> Site_id.t * string;
      at : Sim_time.t;
    }
  | Timer_fired of { id : int }
  | Fault of { tag : string; detail : string }
  | Journal of Journal.entry
  | Span_start of Tel.Tracer.span
  | Span_end of Tel.Tracer.span
  | Step

type t = {
  cfg : Config.t;
  rng : Rng.t;
  metrics : Metrics.t;
  queue : (unit -> unit) Event_queue.t;
  mutable now : Sim_time.t;
  sites : Site.t array;
  mutable next_token : int;
  mutable next_msg : int;  (** logical message ids, one per [send] *)
  mutable next_copy : int;  (** in-flight copy ids (dup adds a copy) *)
  mutable next_timer : int;
  in_flight : (int, Oid.t list) Hashtbl.t;
  parked :
    (Site_id.t, (Site_id.t * Protocol.payload * int) list ref) Hashtbl.t;
  (* per destination site: (ref being inserted -> waiting move token);
     looked up, never iterated, so its bucket order is not observable *)
  awaiting_insert : (Site_id.t * Oid.t, int) Hashtbl.t;
  move_waits : (int, move_wait) Hashtbl.t;
  mutable agent_arrival : agent:int -> dst:Site_id.t -> unit;
  mutable extra_roots : Site_id.t -> Oid.t list;
  mutable gc_running : bool;
  mutable partition_of : int array;  (** site -> partition group *)
  mutable part_parked : (Site_id.t * Site_id.t * Protocol.payload * int) list;
  (* §4.7 deferral: queued collector messages per (src, dst) pair *)
  defer_queues :
    (Site_id.t * Site_id.t, (Protocol.payload * int) list ref) Hashtbl.t;
  (* chaos fault channels: runtime overrides of the configured Ext
     lossiness/duplication, plus a multiplier on sampled latencies.
     [None]/[1.0] defer to the configuration — the extra randomness is
     only drawn when a channel is actually hot, so runs with the
     channels cold are bit-identical to runs without them. *)
  mutable chaos_drop : float option;
  mutable chaos_dup : float option;
  mutable latency_factor : float;
  mutable journal : Journal.t option;
  mutable tracer : Dgc_telemetry.Tracer.t option;
  mutable flight : Tel.Flight.t option;
  mutable profile : Prof.t option;
  series : Tel.Series.t;
  mutable subs : (event -> unit) list;  (** in subscription order *)
  (* [transmit]'s metric handles, each registered on first record: per
     message kind the ("msg.<kind>", "msg.size.<kind>") pair *)
  kind_meters : (string, int ref * Metrics.hist) Hashtbl.t;
  msg_total : int ref Lazy.t;
  msg_bytes : int ref Lazy.t;
  (* [jlog]'s buffer and formatter, reused by every entry *)
  jfmt : (Buffer.t * Format.formatter) Lazy.t;
}

let subscribe t f = t.subs <- t.subs @ [ f ]

(* A top-level loop, not [List.iter] with a closure over [ev]: emitting
   allocates nothing beyond the event itself. *)
let rec emit_to ev = function
  | [] -> ()
  | f :: rest ->
      f ev;
      emit_to ev rest

let emit t ev = emit_to ev t.subs
let add_step_watcher t f = subscribe t (function Step -> f () | _ -> ())
let now_s t = Sim_time.to_seconds t.now

(* Every journal write goes through here, so subscribers see each entry
   once, right after it lands in the ring. *)
let jlog t ?(level = Journal.Info) ~cat fmt =
  match t.journal with
  | Some j ->
      let buf, ppf = Lazy.force t.jfmt in
      (* The flush [Format.kasprintf] ends with, then the text. *)
      Format.kfprintf
        (fun ppf ->
          Format.pp_print_flush ppf ();
          let text = Buffer.contents buf in
          Buffer.clear buf;
          let e = { Journal.at = t.now; level; cat; text } in
          Journal.add j e;
          emit t (Journal e))
        ppf fmt
  | None -> Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

let create cfg =
  let metrics = Metrics.create () in
  {
    cfg;
    rng = Rng.create ~seed:cfg.Config.seed;
    metrics;
    queue = Event_queue.create ~dummy:ignore;
    now = Sim_time.zero;
    sites =
      Array.init cfg.Config.n_sites (fun i -> Site.create (Site_id.of_int i));
    next_token = 0;
    next_msg = 0;
    next_copy = 0;
    next_timer = 0;
    in_flight = Hashtbl.create 64;
    parked = Hashtbl.create 8;
    awaiting_insert = Hashtbl.create 16;
    move_waits = Hashtbl.create 16;
    agent_arrival = (fun ~agent:_ ~dst:_ -> ());
    extra_roots = (fun _ -> []);
    gc_running = false;
    partition_of = Array.make cfg.Config.n_sites 0;
    part_parked = [];
    defer_queues = Hashtbl.create 16;
    chaos_drop = None;
    chaos_dup = None;
    latency_factor = 1.0;
    journal = None;
    tracer = None;
    flight = None;
    profile = None;
    series = Tel.Series.create ();
    subs = [];
    kind_meters = Hashtbl.create 16;
    msg_total = lazy (Metrics.counter_ref metrics "msg.total");
    msg_bytes = lazy (Metrics.counter_ref metrics "msg.bytes");
    jfmt =
      lazy
        (let buf = Buffer.create 128 in
         (buf, Format.formatter_of_buffer buf));
  }

let attach_journal t j = t.journal <- Some j
let journal t = t.journal

let attach_tracer t tr =
  t.tracer <- Some tr;
  Tel.Tracer.set_span_hooks tr
    ~on_start:(fun sp -> emit t (Span_start sp))
    ~on_finish:(fun sp -> emit t (Span_end sp))

let tracer t = t.tracer

(* The flight recorder's subscriber: message traffic, drops with their
   reason, faults, journal entries and span edges go into its rings;
   timers, dup copies and steps are not recorded. *)
let flight_recorder t f =
  let msg kind ~site ~src ~dst ?payload p =
    Tel.Flight.record f ~site:(Site_id.to_int site) ~at:(now_s t) ~kind
      ~a:(Site_id.to_int src) ~b:(Site_id.to_int dst) ~tag:(Protocol.kind p)
      ?payload ()
  in
  let span kind (sp : Tel.Tracer.span) ~b ~at =
    Tel.Flight.record f ~site:sp.site ~at ~kind ~a:sp.id ~b ~tag:sp.name
      ~payload:sp.trace ()
  in
  function
  | Send { src; dst; payload; _ } ->
      msg Tel.Flight.Send ~site:src ~src ~dst payload
  | Deliver { src; dst; payload; _ } ->
      msg Tel.Flight.Deliver ~site:dst ~src ~dst payload
  | Drop { src; dst; payload; reason; _ } ->
      msg Tel.Flight.Drop ~site:src ~src ~dst ~payload:reason payload
  | Fault { tag; detail } ->
      Tel.Flight.record f ~site:(-1) ~at:(now_s t) ~kind:Tel.Flight.Fault ~tag
        ~payload:detail ()
  | Journal e ->
      Tel.Flight.record f ~site:(-1) ~at:(Sim_time.to_seconds e.Journal.at)
        ~kind:Tel.Flight.Journal ~a:(Journal.level_rank e.Journal.level)
        ~tag:e.Journal.cat ~payload:e.Journal.text ()
  | Span_start sp ->
      span Tel.Flight.Span_start sp
        ~b:(Option.value ~default:(-1) sp.parent)
        ~at:sp.start
  | Span_end sp ->
      span Tel.Flight.Span_end sp
        ~b:(if List.mem_assoc "aborted" sp.attrs then 1 else 0)
        ~at:(Option.value ~default:sp.start sp.finish)
  | Dup _ | Timer_armed _ | Timer_fired _ | Step -> ()

let attach_flight t f =
  t.flight <- Some f;
  subscribe t (flight_recorder t f)

let flight t = t.flight
let attach_profile t p = t.profile <- Some p
let profile t = t.profile

(* Work-unit attribution to the profiler's innermost open scope; a
   single [match] when no profiler is attached, so the off path costs
   nothing and — since the profiler draws no randomness and schedules
   no events — the schedule is identical either way. *)
let profile_work t u n =
  match t.profile with None -> () | Some p -> Prof.work p u n

let series t = t.series
let series_incr t name = Tel.Series.incr t.series name ~at:(now_s t)
let series_set t name v = Tel.Series.set t.series name ~at:(now_s t) v

let set_chaos_drop t p = t.chaos_drop <- p
let set_chaos_dup t p = t.chaos_dup <- p
let set_latency_factor t f = t.latency_factor <- Float.max 0. f

let ext_drop_p t =
  match t.chaos_drop with Some p -> p | None -> t.cfg.Config.ext_drop

let ext_dup_p t =
  match t.chaos_dup with Some p -> p | None -> t.cfg.Config.ext_dup

let sample_latency t =
  let l = Latency.sample t.rng t.cfg.Config.latency in
  let factor = t.latency_factor in
  if factor = 1.0 then l
  else Sim_time.of_seconds (Sim_time.to_seconds l *. factor)

let config t = t.cfg
let sites t = t.sites
let site t id = t.sites.(Site_id.to_int id)
let now t = t.now
let rng t = t.rng
let metrics t = t.metrics

(* Snapshot the flight rings into a dgc.flight/1 document. Dangling
   spans are closed first with synthetic [aborted] ends so the span
   edges in the ring (and any later Perfetto export) are complete. *)
let dump_flight t ~reason =
  match t.flight with
  | None -> None
  | Some f ->
      (match t.tracer with
      | Some tr ->
          let n = Tel.Tracer.abort_open tr ~at:(now_s t) in
          if n > 0 then Metrics.add t.metrics "tracer.aborted_spans" n
      | None -> ());
      Some (Tel.Flight.to_json (Tel.Flight.dump f ~reason ~at:(now_s t)))

(* [?label] marks the scheduled closure as a protocol timer: the thunk
   names the owning site and a stable key, so a subscriber (the
   lost-trace detector) can see that a continuation path is still
   armed. It rides in the events unforced. Plain closures (mutator
   steps, trace schedule ticks) stay unlabeled, and with no subscriber
   a labelled timer is a plain closure too. *)
let schedule t ?label ~delay f =
  let at = Sim_time.add t.now delay in
  let f =
    match (label, t.subs) with
    | Some label, _ :: _ ->
        let id = t.next_timer in
        t.next_timer <- id + 1;
        emit t (Timer_armed { id; label; at });
        fun () ->
          emit t (Timer_fired { id });
          f ()
    | _ -> f
  in
  Event_queue.push t.queue ~at f

let fresh_token t =
  let tok = t.next_token in
  t.next_token <- tok + 1;
  tok

let set_agent_arrival t f = t.agent_arrival <- f
let set_extra_roots t f = t.extra_roots <- f

let reachable t a b =
  t.partition_of.(Site_id.to_int a) = t.partition_of.(Site_id.to_int b)

let app_roots t id = t.extra_roots id @ Site.pinned_local_roots (site t id)

let in_flight_refs t =
  let flying = Hashtbl.fold (fun _ refs acc -> refs @ acc) t.in_flight [] in
  let part =
    List.concat_map (fun (_, _, p, _) -> Protocol.refs_carried p) t.part_parked
  in
  (* per-destination queues: parked by a crash, or waiting for a §4.7
     batch *)
  let queued payload_of queues acc =
    Hashtbl.fold
      (fun _ msgs acc ->
        List.fold_left
          (fun acc m -> Protocol.refs_carried (payload_of m) @ acc)
          acc !msgs)
      queues acc
  in
  queued fst t.defer_queues
    (queued (fun (_, p, _) -> p) t.parked (part @ flying))

(* --- forced cleaning (§6.1, §6.4) ------------------------------------ *)

type cleaned = { inref_cleaned : bool; outrefs_cleaned : int }

(* Suspicion changes only at a swap, so only a suspected ioref needs
   forcing; the pin or distance that makes one clean can lapse. *)
let clean_outref s r =
  match Tables.find_outref s.Site.tables r with
  | Some o when o.Ioref.or_suspected ->
      let was_clean = Ioref.outref_clean o in
      o.Ioref.or_forced_clean <- true;
      if was_clean then 0
      else begin
        s.Site.hooks.h_ioref_cleaned r;
        1
      end
  | Some _ | None -> 0

let force_clean t s r =
  let no_inref n = { inref_cleaned = false; outrefs_cleaned = n } in
  if not (Site_id.equal (Oid.site r) s.Site.id) then no_inref (clean_outref s r)
  else
    match Tables.find_inref s.Site.tables r with
    | Some ir when ir.Ioref.ir_suspected ->
        let was_clean = Ioref.inref_clean ~delta:t.cfg.Config.delta ir in
        ir.Ioref.ir_forced_clean <- true;
        if was_clean then no_inref 0
        else begin
          jlog t ~cat:"barrier" "%a cleaned inref %a (+outset)" Site_id.pp
            s.Site.id Oid.pp r;
          s.Site.hooks.h_ioref_cleaned r;
          let n = ref 0 in
          List.iter (fun o -> n := !n + clean_outref s o) ir.Ioref.ir_outset;
          { inref_cleaned = true; outrefs_cleaned = !n }
        end
    | Some _ | None -> no_inref 0

(* --- delivery ------------------------------------------------------- *)

(* The per-kind count and size handles, one lookup per payload; the
   pair is registered by the payload that records it first. *)
let kind_meters t kind =
  match Hashtbl.find_opt t.kind_meters kind with
  | Some m -> m
  | None ->
      let m =
        ( Metrics.counter_ref t.metrics ("msg." ^ kind),
          Metrics.hist_ref t.metrics ("msg.size." ^ kind) )
      in
      Hashtbl.add t.kind_meters kind m;
      m

(* Metric names per drop reason, built once rather than on every drop. *)
let dropped_metric = function
  | "crashed" -> "msg.dropped.crashed"
  | "partition" -> "msg.dropped.partition"
  | "lossy" -> "msg.dropped.lossy"
  | reason -> "msg.dropped." ^ reason

(* The base-protocol receiver, written as a {!Protocol.handlers}
   dispatch table: one handler per constructor, with the single
   exhaustive match living in [Protocol.dispatch]. The context is
   (engine, receiving site id). *)

let rec base_handlers =
  {
    Protocol.h_move =
      (fun (t, dst) ~src ~agent ~refs ~token ->
        let s = site t dst in
        let needed = ref 0 in
        List.iter
          (fun r ->
            (match Site.fresh_outref_of_arrival s r with
            | `Local | `Known -> ()
            | `Created inc ->
                incr needed;
                Hashtbl.replace t.awaiting_insert (dst, r) token;
                send t ~src:dst ~dst:(Oid.site r)
                  (Protocol.Insert { r; by = dst; inc }));
            (* §6.1 barrier point: the reference arrived at this site. *)
            s.Site.hooks.h_ref_arrived r)
          refs;
        t.agent_arrival ~agent ~dst;
        if !needed = 0 then
          send t ~src:dst ~dst:src (Protocol.Move_ack { token })
        else
          Hashtbl.replace t.move_waits token
            { remaining = !needed; reply_to = src; wait_since = t.now });
    h_move_ack =
      (fun (t, dst) ~src:_ ~token -> Site.unpin (site t dst) ~token);
    h_insert =
      (fun (t, dst) ~src:_ ~r ~by ~inc ->
        let s = site t dst in
        let ir = Tables.ensure_inref s.Site.tables r in
        (* A brand-new source is conservatively at distance 1 (§3). *)
        Tables.add_source s.Site.tables ir by ~dist:1 ~inc;
        (* §6.1.2 case 4: the transfer barrier applies to inref z. *)
        s.Site.hooks.h_ref_arrived r;
        send t ~src:dst ~dst:by (Protocol.Insert_done { r }));
    h_insert_done =
      (fun (t, dst) ~src:_ ~r ->
        let s = site t dst in
        (* Release the insert pin taken when the outref was created. *)
        (match Tables.find_outref s.Site.tables r with
        | Some o -> o.Ioref.or_pins <- max 0 (o.Ioref.or_pins - 1)
        | None -> ());
        match Hashtbl.find_opt t.awaiting_insert (dst, r) with
        | None -> ()
        | Some token -> (
            Hashtbl.remove t.awaiting_insert (dst, r);
            match Hashtbl.find_opt t.move_waits token with
            | None -> ()
            | Some w ->
                w.remaining <- w.remaining - 1;
                if w.remaining = 0 then begin
                  Hashtbl.remove t.move_waits token;
                  let stall_ms =
                    1000.
                    *. Sim_time.to_seconds (Sim_time.sub t.now w.wait_since)
                  in
                  Metrics.hist_observe t.metrics "barrier.move_stall_ms"
                    stall_ms;
                  Metrics.hist_observe t.metrics
                    (Site.metric_label (site t dst) "barrier.move_stall_ms")
                    stall_ms;
                  send t ~src:dst ~dst:w.reply_to (Protocol.Move_ack { token })
                end));
    h_update =
      (fun (t, dst) ~src ~removals ~dists ->
        let s = site t dst in
        let on_inref r f =
          match Tables.find_inref s.Site.tables r with
          | Some ir -> f ir
          | None -> ()
        in
        (* A removal older than the source's latest insert is stale: it
           was overtaken by the [Insert] of a newer incarnation of the
           same outref, which still holds the reference. *)
        let stale ir inc =
          match Ioref.find_source ir src with
          | Some so -> so.Ioref.src_inc > inc
          | None -> false
        in
        List.iter
          (fun (r, inc) ->
            on_inref r (fun ir ->
                if not (stale ir inc) then begin
                  Tables.remove_source s.Site.tables ir src;
                  if ir.Ioref.ir_sources = [] then
                    Tables.remove_inref s.Site.tables r
                end))
          removals;
        List.iter
          (fun (r, d) ->
            on_inref r (fun ir ->
                Tables.set_source_dist s.Site.tables ir src ~dist:d))
          dists);
    h_ext =
      (fun (t, dst) ~src e -> (site t dst).Site.hooks.h_ext ~src e);
  }

(* [Deliver] is emitted before dispatch: the sanitizer's receiver clock
   must join the sender's first so any message the handler sends in
   response is causally after this delivery. *)
and deliver t ~src ~dst ~id payload =
  emit t (Deliver { id; src; dst; payload });
  (* Per-handler dispatch scope: everything a handler does — including
     the sends and frames it causes — lands under deliver;<kind>. *)
  match t.profile with
  | None -> Protocol.dispatch base_handlers (t, dst) ~src payload
  | Some p ->
      Prof.with_scope p "deliver" (fun () ->
          Prof.with_scope p (Protocol.kind payload) (fun () ->
              Prof.work p "deliveries" 1;
              Prof.work p "bytes_delivered" (Protocol.approx_bytes payload);
              Protocol.dispatch base_handlers (t, dst) ~src payload))

(* --- sending -------------------------------------------------------- *)

(* A parked Move or Move_ack stalls the §6.1.2 insert barrier: the
   sender keeps its pins until the ack lands, which can starve mutators
   for the whole partition/outage. Journal the cause so the audit's
   BarrierStalled verdicts can name it, and count it for the campaigns. *)
and note_move_stalled t ~why payload =
  match payload with
  | Protocol.Move { token; _ } ->
      Metrics.incr t.metrics "barrier.move_stalled";
      jlog t ~level:Journal.Warn ~cat:"barrier"
        "move (token %d) parked by %s: insert barrier stalled" token why
  | Protocol.Move_ack { token } ->
      Metrics.incr t.metrics "barrier.move_stalled";
      jlog t ~level:Journal.Warn ~cat:"barrier"
        "move-ack (token %d) parked by %s: sender pins held" token why
  | _ -> ()

(* One copy of a message destroyed without delivery, counted under its
   cause ("crashed" / "partition" / "lossy"). *)
and drop t ~src ~dst ~id ~reason payload =
  Metrics.incr t.metrics (dropped_metric reason);
  emit t (Drop { id; src; dst; payload; reason })

(* A base message that cannot land waits for the heal (partition) or
   the destination's recovery (crash); the base protocol must be
   reliable. *)
and park t cause ~src ~dst ~id payload =
  match cause with
  | `Partition ->
      note_move_stalled t ~why:"partition" payload;
      t.part_parked <- (src, dst, payload, id) :: t.part_parked
  | `Crash ->
      note_move_stalled t ~why:"crash" payload;
      let q =
        match Hashtbl.find_opt t.parked dst with
        | Some q -> q
        | None ->
            let q = ref [] in
            Hashtbl.add t.parked dst q;
            q
      in
      q := (src, payload, id) :: !q

(* A wire message that cannot land: each collector payload is dropped,
   counted under [cause], and each base payload parked. *)
and lose t cause ~src ~dst msgs =
  let reason =
    match cause with `Partition -> "partition" | `Crash -> "crashed"
  in
  List.iter
    (fun (p, id) ->
      if Protocol.is_ext p then drop t ~src ~dst ~id ~reason p
      else park t cause ~src ~dst ~id p)
    msgs

(* One wire message on the network — a single payload or a §4.7 batch
   of (payload, id) — for a first send, a duplicate and a redelivery
   after heal/recover alike: the references of every payload stay in
   [in_flight] until it lands. Its fate is decided once at landing,
   partition before crash. *)
and fly t ~src ~dst msgs =
  let copy = t.next_copy in
  t.next_copy <- copy + 1;
  (match List.concat_map (fun (p, _) -> Protocol.refs_carried p) msgs with
  | [] -> ()
  | refs -> Hashtbl.replace t.in_flight copy refs);
  let delay = sample_latency t in
  schedule t ~delay (fun () ->
      Hashtbl.remove t.in_flight copy;
      if not (reachable t src dst) then lose t `Partition ~src ~dst msgs
      else if (site t dst).Site.crashed then lose t `Crash ~src ~dst msgs
      else List.iter (fun (p, id) -> deliver t ~src ~dst ~id p) msgs)

(* Count one wire message and put it on the network. Per-kind counters
   see every payload; [msg.total] counts wire messages. At send time a
   collector message meets a crash, then a partition, then loss; a base
   message is parked by a partition before a crash. *)
and transmit t ~src ~dst msgs =
  let bytes =
    List.fold_left
      (fun acc (p, _) ->
        let count, size = kind_meters t (Protocol.kind p) in
        let b = Protocol.approx_bytes p in
        incr count;
        Metrics.observe size (float_of_int b);
        acc + b)
      0 msgs
  in
  incr (Lazy.force t.msg_total);
  let total_bytes = Lazy.force t.msg_bytes in
  total_bytes := !total_bytes + bytes;
  profile_work t "msgs_sent" (List.length msgs);
  profile_work t "bytes_sent" bytes;
  let is_ext = List.exists (fun (p, _) -> Protocol.is_ext p) msgs in
  let crashed = (site t dst).Site.crashed in
  if is_ext && crashed then lose t `Crash ~src ~dst msgs
  else if not (reachable t src dst) then lose t `Partition ~src ~dst msgs
  else if crashed then lose t `Crash ~src ~dst msgs
  else if is_ext && Rng.chance t.rng (ext_drop_p t) then
    List.iter (fun (p, id) -> drop t ~src ~dst ~id ~reason:"lossy" p) msgs
  else begin
    fly t ~src ~dst msgs;
    (* Duplicate-delivery fault channel: a second, independent copy of
       a collector wire message, with its own latency. The base
       protocol stays exactly-once. The [ext_dup_p t > 0.] guard keeps
       the rng stream untouched when the channel is cold. *)
    if is_ext && ext_dup_p t > 0. && Rng.chance t.rng (ext_dup_p t) then begin
      Metrics.add t.metrics "msg.duplicated" (List.length msgs);
      List.iter (fun (_, id) -> emit t (Dup { id })) msgs;
      fly t ~src ~dst msgs
    end
  end

and send t ~src ~dst payload =
  let id = t.next_msg in
  t.next_msg <- id + 1;
  emit t (Send { id; src; dst; payload });
  let defer = t.cfg.Config.defer_interval in
  if Protocol.is_ext payload && Sim_time.compare defer Sim_time.zero > 0
  then begin
    let key = (src, dst) in
    match Hashtbl.find_opt t.defer_queues key with
    | Some q -> q := (payload, id) :: !q
    | None ->
        let q = ref [ (payload, id) ] in
        Hashtbl.add t.defer_queues key q;
        schedule t ~delay:defer (fun () ->
            match Hashtbl.find_opt t.defer_queues key with
            | None -> ()
            | Some q ->
                Hashtbl.remove t.defer_queues key;
                (* §4.7 "deferred and piggybacked": the whole queue
                   goes out as one wire message. *)
                Metrics.incr t.metrics "msg.batches";
                transmit t ~src ~dst (List.rev !q))
  end
  else transmit t ~src ~dst [ (payload, id) ]

(* Group reference-listing changes by target site, one [Update] each.
   Each site's lists come out in reverse input order, and the sites go
   out in [Hashtbl] order; callers rely on both for message ids. *)
let send_updates t ~src ~removals ~dists =
  match (removals, dists) with
  | [], [] -> ()
  | _ ->
      let by_site = Hashtbl.create 8 in
      let add list_of ((r, _) as entry) =
        let dst = Oid.site r in
        let lists =
          match Hashtbl.find_opt by_site dst with
          | Some lists -> lists
          | None ->
              let lists = (ref [], ref []) in
              Hashtbl.add by_site dst lists;
              lists
        in
        let l = list_of lists in
        l := entry :: !l
      in
      List.iter (add fst) removals;
      List.iter (add snd) dists;
      Hashtbl.iter
        (fun dst (rem, ds) ->
          send t ~src ~dst (Protocol.Update { removals = !rem; dists = !ds }))
        by_site

(* --- mutator moves --------------------------------------------------- *)

let move_agent t ~agent ~src ~dst ~refs =
  if Site_id.equal src dst then t.agent_arrival ~agent ~dst
  else begin
    let token = fresh_token t in
    (* Retain everything we carry until the destination has registered
       it (move-ack): the insert barrier, §6.1.2. *)
    Site.pin (site t src) ~token refs;
    send t ~src ~dst (Protocol.Move { agent; refs; token })
  end

(* --- fault injection -------------------------------------------------- *)

let partition t groups =
  let detail = Printf.sprintf "%d groups" (List.length groups) in
  emit t (Fault { tag = "partition"; detail });
  jlog t ~level:Journal.Warn ~cat:"fault" "partition into %d groups" (List.length groups);
  let parts = Array.make (Array.length t.sites) (List.length groups) in
  List.iteri
    (fun g members ->
      List.iter (fun s -> parts.(Site_id.to_int s) <- g) members)
    groups;
  t.partition_of <- parts;
  Metrics.incr t.metrics "fault.partition"

let heal t =
  emit t (Fault { tag = "heal"; detail = "" });
  jlog t ~level:Journal.Warn ~cat:"fault" "heal";
  t.partition_of <- Array.make (Array.length t.sites) 0;
  Metrics.incr t.metrics "fault.heal";
  let parked = List.rev t.part_parked in
  t.part_parked <- [];
  List.iter
    (fun (src, dst, payload, id) -> fly t ~src ~dst [ (payload, id) ])
    parked

let crash t id =
  emit t (Fault { tag = "crash"; detail = string_of_int (Site_id.to_int id) });
  jlog t ~level:Journal.Warn ~cat:"fault" "crash %a" Site_id.pp id;
  (site t id).Site.crashed <- true;
  Metrics.incr t.metrics "fault.crash"

let recover t id =
  emit t
    (Fault { tag = "recover"; detail = string_of_int (Site_id.to_int id) });
  jlog t ~level:Journal.Warn ~cat:"fault" "recover %a" Site_id.pp id;
  let s = site t id in
  if s.Site.crashed then begin
    s.Site.crashed <- false;
    Metrics.incr t.metrics "fault.recover";
    match Hashtbl.find_opt t.parked id with
    | None -> ()
    | Some q ->
        let msgs = List.rev !q in
        Hashtbl.remove t.parked id;
        List.iter
          (fun (src, payload, msg) -> fly t ~src ~dst:id [ (payload, msg) ])
          msgs
  end

(* --- GC schedule ------------------------------------------------------ *)

let rec schedule_site_trace t id =
  let cfg = t.cfg in
  let jitter =
    if Sim_time.compare cfg.Config.trace_jitter Sim_time.zero <= 0 then
      Sim_time.zero
    else Rng.float t.rng (Sim_time.to_seconds cfg.Config.trace_jitter)
  in
  let delay = Sim_time.add cfg.Config.trace_interval jitter in
  schedule t ~delay (site_trace_tick t id)

and site_trace_tick t id () =
  let s = site t id in
  if not s.Site.crashed then s.Site.hooks.h_run_local_trace ();
  schedule_site_trace t id

let start_gc_schedule t =
  if not t.gc_running then begin
    t.gc_running <- true;
    Array.iteri
      (fun i _ ->
        let id = Site_id.of_int i in
        (* Stagger the first trace of each site across one interval. *)
        let frac =
          Sim_time.to_seconds t.cfg.Config.trace_interval
          *. (float_of_int (i + 1) /. float_of_int (Array.length t.sites + 1))
        in
        schedule t ~delay:(Sim_time.of_seconds frac) (site_trace_tick t id))
      t.sites
  end

(* --- run loop --------------------------------------------------------- *)

let run_event t at f =
  (* Deviating to a later-scheduled event must not move time backwards
     when the skipped earlier events eventually run. *)
  if at > t.now then t.now <- at;
  profile_work t "events" 1;
  f ();
  emit t Step

let step_nth t n =
  match Event_queue.pop_nth t.queue n with
  | None -> false
  | Some (at, f) ->
      run_event t at f;
      true

(* Run the earliest event if it is due at or before [limit]. *)
let step_due t limit =
  let q = t.queue in
  (not (Event_queue.is_empty q))
  &&
  let at = Event_queue.min_time q in
  at <= limit
  && begin
       run_event t at (Event_queue.pop_min q);
       true
     end

let step t = step_due t Float.infinity
let pending t = Event_queue.length t.queue

let run_until t limit =
  while step_due t limit do
    ()
  done;
  t.now <- limit

let run_for t d = run_until t (Sim_time.add t.now d)

let trace_rounds_completed t =
  Array.fold_left (fun acc s -> min acc s.Site.trace_epoch) max_int t.sites
