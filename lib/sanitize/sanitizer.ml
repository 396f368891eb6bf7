open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts
open Dgc_core
module Json = Dgc_telemetry.Json

type race = {
  rc_oid : Oid.t;
  rc_trace : Trace_id.t;
  rc_trace_site : Site_id.t;
  rc_transfer_site : Site_id.t;
  rc_transfer_kind : string;
  rc_harmful : bool;
  rc_at : Sim_time.t;
}

type leak = {
  lk_trace : Trace_id.t;
  lk_residue : (Site_id.t * Back_trace.residue) list;
  lk_evidence : string list;
  lk_at : Sim_time.t;
}

(* One in-flight message, keyed by the engine's message id: the
   sender's clock snapshot plus enough payload identity for the leak
   detector's in-flight accounting. [c_outstanding] counts undelivered
   copies (dup channel adds one); the entry dies when it reaches zero. *)
type msg = {
  c_clock : Vclock.t;
  c_trace : Trace_id.t option;
  mutable c_outstanding : int;
  mutable c_delivered : int;
}

(* A resolved collector-state access for the race detector: the
   receiver's clock right after the delivery join. Transfer-class
   accesses additionally record whether the §6.1 barrier protected the
   ioref, judged after the delivery dispatched. *)
type access = {
  a_site : Site_id.t;
  a_clock : Vclock.t;
  a_kind : string;
  a_trace : Trace_id.t option;  (** the reading trace, for trace-class *)
  a_protected : bool;
}

(* A transfer delivery whose protection verdict is still pending: the
   barrier bits are set by the handler, i.e. during dispatch, which
   runs after the [Deliver] event — so the verdict must wait for the
   [Step] event. *)
type candidate = {
  pc_oid : Oid.t;
  pc_site : Site_id.t;
  pc_kind : string;
  pc_clock : Vclock.t;
}

type t = {
  eng : Engine.t;
  clocks : Vclock.t array;
  msgs : (int, msg) Hashtbl.t;
  (* armed, not-yet-fired timers: id -> trace tag of the key *)
  timers : (int, string) Hashtbl.t;
  (* per-trace-tag counts for O(1) leak queries *)
  inflight : (string, int ref) Hashtbl.t;
  armed : (string, int ref) Hashtbl.t;
  (* (trace tag, caller site, call seq) -> callee, learned at send *)
  callees : (string * int * int, Site_id.t) Hashtbl.t;
  transfers : access list ref Oid.Tbl.t;
  trace_reads : access list ref Oid.Tbl.t;
  settled : (int * string, unit) Hashtbl.t;  (** (site, trace tag) *)
  mutable pending : candidate list;
  mutable races : race list;
  mutable leaks : leak list;
  leak_seen : (string, unit) Hashtbl.t;
  mutable sh : Back_trace.shared option;
}

let tstr = Trace_id.to_string
let sid = Site_id.to_int

let bump tbl tag d =
  match Hashtbl.find_opt tbl tag with
  | Some r ->
      r := !r + d;
      if !r <= 0 then Hashtbl.remove tbl tag
  | None -> if d > 0 then Hashtbl.add tbl tag (ref d)

let count tbl tag =
  match Hashtbl.find_opt tbl tag with Some r -> !r | None -> 0

(* trace tag of a timer key "kind/<trace>/..." (Back_trace.timer_key_call
   and timer_key_ttl both use this shape) *)
let key_tag key =
  match String.split_on_char '/' key with _ :: t :: _ -> Some t | _ -> None

let payload_trace = function
  | Protocol.Ext (Back_trace.Back_call { trace; _ })
  | Protocol.Ext (Back_trace.Back_reply { trace; _ })
  | Protocol.Ext (Back_trace.Back_report { trace; _ }) ->
      Some trace
  | _ -> None

(* Oids whose collector state the delivery writes (transfer class). *)
let transfer_oids = function
  | Protocol.Move { refs; _ } -> refs
  | Protocol.Insert { r; _ } -> [ r ]
  | _ -> []

let metrics t = Engine.metrics t.eng
let jlog t ?level fmt = Engine.jlog t.eng ?level ~cat:"san" fmt

(* --- access history ---------------------------------------------------- *)

let history_cap = 64

let push_access tbl oid a =
  match Oid.Tbl.find_opt tbl oid with
  | Some l ->
      l := a :: !l;
      (match !l with
      | _ :: _ when List.length !l > history_cap ->
          l := List.filteri (fun i _ -> i < history_cap) !l
      | _ -> ())
  | None -> Oid.Tbl.add tbl oid (ref [ a ])

let accesses tbl oid =
  match Oid.Tbl.find_opt tbl oid with Some l -> !l | None -> []

(* Was the transferred ioref protected by the §6.1 machinery at the
   transfer site, as of right after the delivery dispatched? *)
let protection_engaged t ~site ~oid =
  let s = Engine.site t.eng site in
  if Site_id.equal (Oid.site oid) site then
    match Tables.find_inref s.Site.tables oid with
    | Some ir -> Ioref.inref_held ir
    | None -> false
  else
    match Tables.find_outref s.Site.tables oid with
    | Some o -> Ioref.outref_held o
    | None -> false

let record_race t ~oid ~trace ~trace_site ~transfer ~harmful =
  let r =
    {
      rc_oid = oid;
      rc_trace = trace;
      rc_trace_site = trace_site;
      rc_transfer_site = transfer.a_site;
      rc_transfer_kind = transfer.a_kind;
      rc_harmful = harmful;
      rc_at = Engine.now t.eng;
    }
  in
  t.races <- r :: t.races;
  if harmful then begin
    Metrics.incr (metrics t) "san.race_harmful";
    jlog t ~level:Journal.Warn
      "race: transfer of %a (%s at site %d) concurrent with back trace %a \
       reading it at site %d, no barrier protection"
      Oid.pp oid transfer.a_kind (sid transfer.a_site) Trace_id.pp trace
      (sid trace_site)
  end
  else begin
    Metrics.incr (metrics t) "san.race_benign";
    jlog t ~level:Journal.Debug
      "benign race: transfer of %a concurrent with trace %a but barrier \
       protection held"
      Oid.pp oid Trace_id.pp trace
  end

(* --- engine events ----------------------------------------------------- *)

let on_send t ~id ~src ~dst payload =
  Vclock.tick t.clocks.(sid src) (sid src);
  let trace = payload_trace payload in
  Hashtbl.replace t.msgs id
    {
      c_clock = Vclock.copy t.clocks.(sid src);
      c_trace = trace;
      c_outstanding = 1;
      c_delivered = 0;
    };
  (match trace with Some tr -> bump t.inflight (tstr tr) 1 | None -> ());
  (* learn which site answers each call, for the leak verdicts *)
  (match payload with
  | Protocol.Ext (Back_trace.Back_call { trace; reply_site; call_seq; _ }) ->
      Hashtbl.replace t.callees (tstr trace, sid reply_site, call_seq) dst
  | _ -> ());
  Metrics.incr (metrics t) "san.capsules"

let on_copy t id =
  match Hashtbl.find_opt t.msgs id with
  | None -> ()
  | Some c ->
      c.c_outstanding <- c.c_outstanding + 1;
      (match c.c_trace with
      | Some tr -> bump t.inflight (tstr tr) 1
      | None -> ());
      Metrics.incr (metrics t) "san.dup_copies"

let consume t id =
  match Hashtbl.find_opt t.msgs id with
  | None -> None
  | Some c ->
      c.c_outstanding <- c.c_outstanding - 1;
      (match c.c_trace with
      | Some tr -> bump t.inflight (tstr tr) (-1)
      | None -> ());
      if c.c_outstanding <= 0 && c.c_delivered > 0 then
        Hashtbl.remove t.msgs id;
      Some c

let on_dropped t id =
  match consume t id with
  | None -> ()
  | Some c ->
      if c.c_outstanding <= 0 then Hashtbl.remove t.msgs id;
      Metrics.incr (metrics t) "san.dropped"

let on_deliver t ~id ~dst payload =
  let c = consume t id in
  (match c with
  | Some c ->
      c.c_delivered <- c.c_delivered + 1;
      if c.c_delivered > 1 then Metrics.incr (metrics t) "san.dup_delivered";
      (* all copies accounted for: the message can leave the table *)
      if c.c_outstanding <= 0 then Hashtbl.remove t.msgs id;
      Vclock.join t.clocks.(sid dst) c.c_clock
  | None -> ());
  Vclock.tick t.clocks.(sid dst) (sid dst);
  Metrics.incr (metrics t) "san.delivered";
  let here = Vclock.copy t.clocks.(sid dst) in
  (* transfer-class writes: protection is judged post-dispatch *)
  List.iter
    (fun oid ->
      t.pending <-
        {
          pc_oid = oid;
          pc_site = dst;
          pc_kind = Protocol.kind payload;
          pc_clock = here;
        }
        :: t.pending)
    (transfer_oids payload);
  (* trace-class reads, replay and reorder accounting *)
  match payload with
  | Protocol.Ext (Back_trace.Back_call { trace; r; _ }) ->
      if Hashtbl.mem t.settled (sid dst, tstr trace) then begin
        (* duplicate or straggler call into a trace already settled
           here: the memo / table re-answer makes it harmless *)
        Metrics.incr (metrics t) "san.stale_replay";
        jlog t ~level:Journal.Debug
          "stale replay: call of settled trace %a at site %d" Trace_id.pp
          trace (sid dst)
      end;
      let a =
        {
          a_site = dst;
          a_clock = here;
          a_kind = "back_call";
          a_trace = Some trace;
          a_protected = false;
        }
      in
      push_access t.trace_reads r a;
      List.iter
        (fun (tr : access) ->
          if Vclock.concurrent tr.a_clock here then
            record_race t ~oid:r ~trace ~trace_site:dst ~transfer:tr
              ~harmful:(not tr.a_protected))
        (accesses t.transfers r)
  | Protocol.Ext (Back_trace.Back_report { trace; _ }) -> (
      Hashtbl.replace t.settled (sid dst, tstr trace) ();
      match t.sh with
      | Some sh
        when List.exists
               (fun fi -> Trace_id.equal fi.Back_trace.fi_trace trace)
               (Back_trace.open_frames sh dst) ->
          (* the outcome overtook replies this site still waits for:
             a legal reordering (reports dominate, frames abort) *)
          Metrics.incr (metrics t) "san.report_reorder";
          jlog t ~level:Journal.Debug
            "report of %a reached site %d before its frames settled"
            Trace_id.pp trace (sid dst)
      | _ -> ())
  | _ -> ()

let on_timer_armed t ~id ~key =
  let tag = match key_tag key with Some tag -> tag | None -> key in
  Hashtbl.replace t.timers id tag;
  bump t.armed tag 1;
  Metrics.incr (metrics t) "san.timers_armed"

let on_timer_fired t id =
  match Hashtbl.find_opt t.timers id with
  | None -> ()
  | Some tag ->
      Hashtbl.remove t.timers id;
      bump t.armed tag (-1);
      Metrics.incr (metrics t) "san.timers_fired"

(* Resolve pending transfer candidates now that the handler (and so the
   §6.1 barrier) has run, then compare against recorded trace reads. *)
let resolve_pending t =
  match t.pending with
  | [] -> ()
  | pending ->
      t.pending <- [];
      List.iter
        (fun pc ->
          let protected_ = protection_engaged t ~site:pc.pc_site ~oid:pc.pc_oid in
          let a =
            {
              a_site = pc.pc_site;
              a_clock = pc.pc_clock;
              a_kind = pc.pc_kind;
              a_trace = None;
              a_protected = protected_;
            }
          in
          push_access t.transfers pc.pc_oid a;
          List.iter
            (fun (rd : access) ->
              if Vclock.concurrent rd.a_clock pc.pc_clock then
                match rd.a_trace with
                | Some trace ->
                    record_race t ~oid:pc.pc_oid ~trace ~trace_site:rd.a_site
                      ~transfer:a ~harmful:(not protected_)
                | None -> ())
            (accesses t.trace_reads pc.pc_oid))
        (List.rev pending)

(* --- lost-trace leak detector ------------------------------------------ *)

let check_leaks t =
  match t.sh with
  | None -> []
  | Some sh ->
      let fresh = ref [] in
      let concluded trace =
        match Back_trace.find_stat sh trace with
        | Some st -> st.Back_trace.ts_outcome <> None
        | None -> false
      in
      List.iter
        (fun (trace, residue) ->
          let tag = tstr trace in
          if
            (not (Hashtbl.mem t.leak_seen tag))
            && count t.inflight tag = 0
            && count t.armed tag = 0
          then
            if concluded trace then begin
              (* The trace already reached its outcome at the initiator;
                 what lingers is residue at a participant whose reply was
                 reordered past the conclusion, so it never saw the
                 report that purges frames/memo. Storage is bounded by
                 the memo cap — a benign reordering, not a lost trace. *)
              Hashtbl.replace t.leak_seen tag ();
              Metrics.incr (metrics t) "san.residue_stranded";
              jlog t "trace %a concluded but %d site(s) keep stranded \
                      residue (reply reordered past the report)"
                Trace_id.pp trace (List.length residue)
            end
            else begin
            (* Nothing can ever advance this trace again: the protocol
               moves only on message deliveries and §4.6 timers, and it
               has neither. Prove it with the causal facts. *)
            let ev =
              ref
                [
                  "no message of this trace is in flight (sent - delivered \
                   - dropped = 0)";
                  "no \xc2\xa74.6 timer (call timeout or visited TTL) is \
                   armed for it";
                ]
            in
            List.iter
              (fun (site, r) ->
                if r.Back_trace.rs_frames > 0 then
                  List.iter
                    (fun fi ->
                      if Trace_id.equal fi.Back_trace.fi_trace trace then
                        List.iter
                          (fun seq ->
                            match
                              Hashtbl.find_opt t.callees (tag, sid site, seq)
                            with
                            | Some callee ->
                                let crashed =
                                  (Engine.site t.eng callee).Site.crashed
                                in
                                ev :=
                                  Printf.sprintf
                                    "call #%d from site %d to site %d is \
                                     unanswered%s"
                                    seq (sid site) (sid callee)
                                    (if crashed then
                                       " and the callee is crashed"
                                     else "")
                                  :: !ev
                            | None -> ())
                          fi.Back_trace.fi_calls)
                    (Back_trace.open_frames sh site))
              residue;
            let lk =
              {
                lk_trace = trace;
                lk_residue = residue;
                lk_evidence = List.rev !ev;
                lk_at = Engine.now t.eng;
              }
            in
            Hashtbl.replace t.leak_seen tag ();
            t.leaks <- lk :: t.leaks;
            fresh := lk :: !fresh;
            Metrics.incr (metrics t) "san.leak_proof";
            jlog t ~level:Journal.Warn
              "lost trace %a: %d site(s) still hold frames/memo/visited \
               state but no message or timer can ever advance it"
              Trace_id.pp trace (List.length residue)
          end)
        (Back_trace.residue sh);
      List.rev !fresh

(* --- public surface ----------------------------------------------------- *)

let install eng =
  let n = Array.length (Engine.sites eng) in
  let t =
    {
      eng;
      clocks = Array.init n (fun _ -> Vclock.create n);
      msgs = Hashtbl.create 256;
      timers = Hashtbl.create 64;
      inflight = Hashtbl.create 32;
      armed = Hashtbl.create 32;
      callees = Hashtbl.create 64;
      transfers = Oid.Tbl.create 64;
      trace_reads = Oid.Tbl.create 64;
      settled = Hashtbl.create 32;
      pending = [];
      races = [];
      leaks = [];
      leak_seen = Hashtbl.create 8;
      sh = None;
    }
  in
  Engine.subscribe eng (function
    | Engine.Send { id; src; dst; payload } -> on_send t ~id ~src ~dst payload
    | Engine.Dup { id } -> on_copy t id
    | Engine.Drop { id; _ } -> on_dropped t id
    | Engine.Deliver { id; dst; payload; _ } -> on_deliver t ~id ~dst payload
    | Engine.Timer_armed { id; label; _ } ->
        on_timer_armed t ~id ~key:(snd (label ()))
    | Engine.Timer_fired { id } -> on_timer_fired t id
    | Engine.Step -> resolve_pending t
    | _ -> ());
  t

let set_shared t sh = t.sh <- Some sh

let races t = List.rev t.races
let harmful_races t = List.filter (fun r -> r.rc_harmful) (races t)
let leaks t = List.rev t.leaks

let race_message r =
  Format.asprintf
    "san: harmful race on %a (%s at site %d vs trace %a at site %d)" Oid.pp
    r.rc_oid r.rc_transfer_kind (sid r.rc_transfer_site) Trace_id.pp
    r.rc_trace (sid r.rc_trace_site)

let leak_message l =
  Format.asprintf "san: lost trace %a (%s)" Trace_id.pp l.lk_trace
    (String.concat "; " l.lk_evidence)

let check t =
  resolve_pending t;
  ignore (check_leaks t);
  List.map race_message (harmful_races t) @ List.map leak_message (leaks t)

let residue_json (site, r) =
  Json.Obj
    [
      ("site", Json.Int (sid site));
      ("frames", Json.Int r.Back_trace.rs_frames);
      ("memo", Json.Int r.Back_trace.rs_memo);
      ("visited", Json.Int r.Back_trace.rs_visited);
    ]

let race_json r =
  Json.Obj
    [
      ("oid", Json.Str (Oid.to_string r.rc_oid));
      ("trace", Json.Str (tstr r.rc_trace));
      ("trace_site", Json.Int (sid r.rc_trace_site));
      ("transfer_site", Json.Int (sid r.rc_transfer_site));
      ("transfer_kind", Json.Str r.rc_transfer_kind);
      ("harmful", Json.Bool r.rc_harmful);
      ("at", Json.Float (Sim_time.to_seconds r.rc_at));
    ]

let leak_json l =
  Json.Obj
    [
      ("trace", Json.Str (tstr l.lk_trace));
      ("residue", Json.Arr (List.map residue_json l.lk_residue));
      ("evidence", Json.Arr (List.map (fun e -> Json.Str e) l.lk_evidence));
      ("at", Json.Float (Sim_time.to_seconds l.lk_at));
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str "dgc.san/1");
      ("races", Json.Arr (List.map race_json (races t)));
      ("leaks", Json.Arr (List.map leak_json (leaks t)));
      ("live_capsules", Json.Int (Hashtbl.length t.msgs));
      ("armed_timers", Json.Int (Hashtbl.length t.timers));
    ]
