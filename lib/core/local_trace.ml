open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts

type mode = Bottom_up | Independent | Naive_bottom_up

type input = {
  in_site : Site_id.t;
  in_graph : Dense.t;
  in_roots : Oid.t list;
  in_inrefs : (Oid.t * int * bool) list;
  in_outrefs : Oid.t list;
  in_delta : int;
}

(* Deliberately the sorted [Tables.inrefs]/[Tables.outrefs] views:
   traversal order here decides outset-store interning order, and with
   it [ot_stats] (distinct_outsets / union_calls / memo_hits) in the
   outcome — determinism is observable. *)
let sample_tables site =
  let inrefs =
    List.map
      (fun ir ->
        (ir.Ioref.ir_target, Ioref.inref_dist ir, ir.Ioref.ir_flagged))
      (Tables.inrefs site.Site.tables)
  in
  let outrefs =
    List.map (fun o -> o.Ioref.or_target) (Tables.outrefs site.Site.tables)
  in
  (inrefs, outrefs)

let input_of_snapshot eng site snap =
  let inrefs, outrefs = sample_tables site in
  {
    in_site = site.Site.id;
    in_graph = Snapshot.dense snap;
    in_roots =
      Snapshot.persistent_roots snap @ Engine.app_roots eng site.Site.id;
    in_inrefs = inrefs;
    in_outrefs = outrefs;
    in_delta = (Engine.config eng).Config.delta;
  }

let input_of_site eng site =
  input_of_snapshot eng site (Snapshot.take site.Site.heap)

type stamp = {
  s_gen : int;
  s_frees : int;
  s_tables : int;
  s_roots : Oid.t list;
  s_delta : int;
}

let stamp eng site =
  let heap = site.Site.heap in
  {
    s_gen = Heap.generation heap;
    s_frees = Heap.frees heap;
    s_tables = Tables.version site.Site.tables;
    s_roots = Heap.persistent_roots heap @ Engine.app_roots eng site.Site.id;
    s_delta = (Engine.config eng).Config.delta;
  }

(* A generation of -1 (the shape changed, no capture yet) matches
   nothing. *)
let same_input a b =
  a.s_gen >= 0 && a.s_gen = b.s_gen && a.s_frees = b.s_frees
  && a.s_tables = b.s_tables && a.s_delta = b.s_delta
  && List.equal Oid.equal a.s_roots b.s_roots

type out_result = {
  o_ref : Oid.t;
  o_dist : int;
  o_suspected : bool;
  o_removed : bool;
  o_inset : Oid.t list;
}

type in_result = { i_ref : Oid.t; i_suspected : bool; i_outset : Oid.t list }

type stats = {
  clean_visits : int;
  suspect_visits : int;
  distinct_outsets : int;
  union_calls : int;
  memo_hits : int;
  inset_entries : int;
  suspected_inrefs : int;
  suspected_outrefs : int;
  workspace_bytes : int;
}

type outcome = {
  out_site : Site_id.t;
  dead : int list;
  out_results : out_result list;
  in_results : in_result list;
  ot_stats : stats;
}

(* Per-outref accumulator during a trace. *)
type outinfo = { oi_dist : int; mutable oi_clean : bool }

(* Reusable index-space workspace. Validity of every per-object cell is
   epoch-stamped, so consecutive traces pay no O(heap) clears:

   - [w_mark.(i) = epoch lsl 2 lor state] with state 1 = Clean,
     2 = Suspect; a cell whose epoch part differs is unmarked.
   - [w_num]/[w_lead]/[w_oset] (Tarjan visit number, component leader,
     outset id) are valid iff [w_nume.(i)] carries the current epoch —
     they are always written together by the suspect phase's [start].
   - [w_vis] is a sub-trace visited stamp against [w_vep] (one bump
     per §5.1 independent trace, one for the whole naive scan).

   [compute] is synchronous, so one module-level workspace serves every
   trace; it grows to the largest allocation clock seen so far. *)
type ws = {
  mutable w_cap : int;
  mutable w_mark : int array;
  mutable w_num : int array;
  mutable w_nume : int array;
  mutable w_lead : int array;
  mutable w_oset : int array;
  mutable w_vis : int array;
  mutable w_stack : int array;
  mutable w_fx : int array;
  mutable w_fk : int array;
  mutable w_comp : int array;
  mutable w_epoch : int;
  mutable w_vep : int;
}

let ws =
  {
    w_cap = 0;
    w_mark = [||];
    w_num = [||];
    w_nume = [||];
    w_lead = [||];
    w_oset = [||];
    w_vis = [||];
    w_stack = Array.make 256 0;
    w_fx = Array.make 256 0;
    w_fk = Array.make 256 0;
    w_comp = Array.make 256 0;
    w_epoch = 0;
    w_vep = 0;
  }

let ws_ensure ws cap =
  if cap > ws.w_cap then begin
    let c = max cap (max 1024 (2 * ws.w_cap)) in
    ws.w_mark <- Array.make c 0;
    ws.w_num <- Array.make c 0;
    ws.w_nume <- Array.make c 0;
    ws.w_lead <- Array.make c 0;
    ws.w_oset <- Array.make c 0;
    ws.w_vis <- Array.make c 0;
    ws.w_cap <- c
  end

(* Root-closure memo: what the distance-0 root group marked clean, kept
   per site across traces. A memo recorded over capture [m_codes] with
   roots [m_roots] is still exact for an input with the same capture
   (physically: same rows, bound and pool; the present set can only
   have shrunk, since only frees happen without a shape change) and
   the same root list, provided every index it marks is still present:
   the root group then expands exactly the same rows, in the same
   order, as it did when recorded. [m_codes = [||]] means "no memo" — a
   capture's [d_codes] is never empty. *)
type memo = {
  mutable m_codes : int array;
  mutable m_roots : Oid.t list;
  mutable m_marked : Bytes.t;  (** byte per local index: marked clean *)
  mutable m_remotes : Oid.t list;  (** remote refs reached, first-reach order *)
  mutable m_visits : int;
  mutable m_hits : int;
  mutable m_misses : int;
}

let memo () =
  {
    m_codes = [||];
    m_roots = [];
    m_marked = Bytes.empty;
    m_remotes = [];
    m_visits = 0;
    m_hits = 0;
    m_misses = 0;
  }

let memo_stats m = (m.m_hits, m.m_misses)

let memo_valid m inp =
  let d = inp.in_graph in
  m.m_codes == d.Dense.d_codes
  && List.equal Oid.equal m.m_roots inp.in_roots
  && Dense.covers ~present:d.Dense.d_present m.m_marked

let compute ?(mode = Bottom_up) ?probe ?memo inp =
  let d = inp.in_graph in
  let bound = d.Dense.d_bound in
  let codes = d.Dense.d_codes
  and starts = d.Dense.d_start
  and pool = d.Dense.d_pool
  and pres = d.Dense.d_present in
  let present i = Bytes.get pres i <> '\000' in
  ws_ensure ws bound;
  ws.w_epoch <- ws.w_epoch + 1;
  let epoch = ws.w_epoch in
  let mark = ws.w_mark
  and num = ws.w_num
  and nume = ws.w_nume
  and lead = ws.w_lead
  and oset = ws.w_oset
  and vis = ws.w_vis in
  (* 0 unmarked, 1 Clean, 2 Suspect *)
  let mark_get i =
    let m = mark.(i) in
    if m lsr 2 = epoch then m land 3 else 0
  in
  let mark_set i v = mark.(i) <- (epoch lsl 2) lor v in
  let num_valid i = nume.(i) = epoch in
  let note tag = match probe with Some f -> f tag | None -> () in
  let is_local r = Site_id.equal (Oid.site r) inp.in_site in
  let outinfo : outinfo Oid.Tbl.t = Oid.Tbl.create 64 in
  let clean_visits = ref 0 in
  let suspect_visits = ref 0 in

  (* Scratch int stack (clean phase + independent traces). *)
  let sp = ref 0 in
  let push i =
    if !sp >= Array.length ws.w_stack then begin
      let b = Array.make (2 * Array.length ws.w_stack) 0 in
      Array.blit ws.w_stack 0 b 0 !sp;
      ws.w_stack <- b
    end;
    ws.w_stack.(!sp) <- i;
    incr sp
  in

  (* ---- clean phase: trace distance-ordered clean roots (§3) ----
     The distance-0 root group runs first, from an unmarked workspace;
     the inref groups follow in increasing distance (never negative),
     ties in table order. *)
  let inref_groups =
    List.filter_map
      (fun (r, d, flagged) ->
        if flagged || d > inp.in_delta then None else Some (d, [ r ]))
      inp.in_inrefs
    |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let reach_out_clean dg r =
    (* First reach sets the distance (ascending root order makes it
       the minimum); any reach from a clean root makes it clean. *)
    match Oid.Tbl.find_opt outinfo r with
    | Some oi -> oi.oi_clean <- true
    | None -> Oid.Tbl.add outinfo r { oi_dist = dg + 1; oi_clean = true }
  in
  let trace_clean_group ~reach roots =
    List.iter
      (fun r ->
        if is_local r then begin
          let i = Oid.index r in
          if i >= 0 && i < bound && present i && mark_get i = 0 then begin
            mark_set i 1;
            incr clean_visits;
            push i
          end
        end
        else reach r)
      roots;
    while !sp > 0 do
      decr sp;
      let i = ws.w_stack.(!sp) in
      for k = starts.(i) to starts.(i + 1) - 1 do
        let c = codes.(k) in
        if c >= 0 then begin
          if present c && mark_get c = 0 then begin
            mark_set c 1;
            incr clean_visits;
            push c
          end
        end
        else begin
          let r = pool.(-c - 1) in
          if not (is_local r) then reach r
        end
      done
    done
  in
  (match memo with
  | Some m when memo_valid m inp ->
      m.m_hits <- m.m_hits + 1;
      Dense.iter_set m.m_marked (fun i -> mark_set i 1);
      clean_visits := m.m_visits;
      List.iter (reach_out_clean 0) m.m_remotes
  | Some m ->
      m.m_misses <- m.m_misses + 1;
      let reached = ref [] in
      trace_clean_group inp.in_roots ~reach:(fun r ->
          if not (Oid.Tbl.mem outinfo r) then reached := r :: !reached;
          reach_out_clean 0 r);
      let marked =
        if Bytes.length m.m_marked = bound then m.m_marked
        else Bytes.create bound
      in
      for i = 0 to bound - 1 do
        Bytes.unsafe_set marked i (if mark_get i = 1 then '\001' else '\000')
      done;
      m.m_codes <- codes;
      m.m_roots <- inp.in_roots;
      m.m_marked <- marked;
      m.m_remotes <- List.rev !reached;
      m.m_visits <- !clean_visits
  | None -> trace_clean_group inp.in_roots ~reach:(reach_out_clean 0));
  List.iter
    (fun (dg, roots) -> trace_clean_group roots ~reach:(reach_out_clean dg))
    inref_groups;
  note "clean";

  (* ---- suspect phase ---- *)
  let suspects =
    List.filter_map
      (fun (r, d, flagged) ->
        if flagged || d <= inp.in_delta then None else Some (r, d))
      inp.in_inrefs
    |> List.stable_sort (fun (_, a) (_, b) -> Int.compare a b)
  in
  let store = Outset_store.create () in
  (* Encountering a remote reference from a suspected trace rooted at
     distance [d]: returns the outset contribution (None if the outref
     is clean). *)
  let reach_out_suspect dg r =
    match Oid.Tbl.find_opt outinfo r with
    | Some oi ->
        if oi.oi_clean then None else Some (Outset_store.singleton store r)
    | None ->
        Oid.Tbl.add outinfo r { oi_dist = dg + 1; oi_clean = false };
        Some (Outset_store.singleton store r)
  in

  let inref_outsets : Oid.t list Oid.Tbl.t = Oid.Tbl.create 64 in

  (* Iterative DFS frames: object index + next code position. *)
  let fp = ref 0 in
  let fpush x k =
    if !fp >= Array.length ws.w_fx then begin
      let bx = Array.make (2 * Array.length ws.w_fx) 0 in
      let bk = Array.make (2 * Array.length ws.w_fk) 0 in
      Array.blit ws.w_fx 0 bx 0 !fp;
      Array.blit ws.w_fk 0 bk 0 !fp;
      ws.w_fx <- bx;
      ws.w_fk <- bk
    end;
    ws.w_fx.(!fp) <- x;
    ws.w_fk.(!fp) <- k;
    incr fp
  in

  (match mode with
  | Bottom_up ->
      (* §5.2: fused trace + Tarjan SCC + bottom-up outsets. The state
         mirrors the paper's pseudocode — Mark (visit numbers), Leader,
         Outset, and an auxiliary component stack — laid out as
         index-space arrays ([w_num]/[w_lead]/[w_oset], valid under the
         [w_nume] epoch stamp). *)
      let csp = ref 0 in
      let cpush x =
        if !csp >= Array.length ws.w_comp then begin
          let b = Array.make (2 * Array.length ws.w_comp) 0 in
          Array.blit ws.w_comp 0 b 0 !csp;
          ws.w_comp <- b
        end;
        ws.w_comp.(!csp) <- x;
        incr csp
      in
      let counter = ref 0 in
      let inf = max_int in
      let start x =
        num.(x) <- !counter;
        nume.(x) <- epoch;
        lead.(x) <- !counter;
        incr counter;
        cpush x;
        mark_set x 2;
        incr suspect_visits;
        oset.(x) <- Outset_store.empty store
      in
      let merge_into p child_outset child_leader =
        oset.(p) <- Outset_store.union store oset.(p) child_outset;
        if child_leader < lead.(p) then lead.(p) <- child_leader
      in
      let finish x =
        if lead.(x) = num.(x) then begin
          (* x leads its component: give every member x's outset. *)
          let ox = oset.(x) in
          let rec pop () =
            if !csp = 0 then assert false
            else begin
              decr csp;
              let z = ws.w_comp.(!csp) in
              oset.(z) <- ox;
              lead.(z) <- inf;
              if z <> x then pop ()
            end
          in
          pop ()
        end
      in
      let trace_suspected dg root =
        if is_local root then begin
          let i = Oid.index root in
          if
            i >= 0 && i < bound && present i
            && mark_get i = 0
            && not (num_valid i)
          then begin
            start i;
            fpush i starts.(i);
            while !fp > 0 do
              let x = ws.w_fx.(!fp - 1) in
              let k = ws.w_fk.(!fp - 1) in
              if k >= starts.(x + 1) then begin
                finish x;
                decr fp;
                if !fp > 0 then
                  merge_into ws.w_fx.(!fp - 1) oset.(x) lead.(x)
              end
              else begin
                ws.w_fk.(!fp - 1) <- k + 1;
                let c = codes.(k) in
                if c >= 0 then begin
                  if present c && mark_get c <> 1 then begin
                    if num_valid c then
                      (* already traced (possibly on the stack):
                         merge its current outset and leader *)
                      merge_into x oset.(c) lead.(c)
                    else begin
                      start c;
                      fpush c starts.(c)
                    end
                  end
                end
                else begin
                  let r = pool.(-c - 1) in
                  if not (is_local r) then
                    match reach_out_suspect dg r with
                    | None -> ()
                    | Some contrib ->
                        oset.(x) <- Outset_store.union store oset.(x) contrib
                end
              end
            done
          end
        end
      in
      List.iter
        (fun (r, dg) ->
          trace_suspected dg r;
          let outset =
            let i = Oid.index r in
            if is_local r && i >= 0 && i < bound && num_valid i then
              Outset_store.elements store oset.(i)
            else [] (* object clean or absent *)
          in
          Oid.Tbl.replace inref_outsets r outset)
        suspects
  | Naive_bottom_up ->
      (* §5.2's first cut: single scan, outsets unioned bottom-up, but
         no SCC handling — back edges read incomplete outsets. Kept
         only to demonstrate the failure (Figure 4). Visited-ness (and
         with it [w_oset] validity) is the [w_vis] stamp. *)
      ws.w_vep <- ws.w_vep + 1;
      let vep = ws.w_vep in
      let start x =
        vis.(x) <- vep;
        mark_set x 2;
        incr suspect_visits;
        oset.(x) <- Outset_store.empty store
      in
      let merge_into p contrib =
        oset.(p) <- Outset_store.union store oset.(p) contrib
      in
      let trace_naive dg root =
        if is_local root then begin
          let i = Oid.index root in
          if
            i >= 0 && i < bound && present i
            && mark_get i <> 1
            && vis.(i) <> vep
          then begin
            start i;
            fpush i starts.(i);
            while !fp > 0 do
              let x = ws.w_fx.(!fp - 1) in
              let k = ws.w_fk.(!fp - 1) in
              if k >= starts.(x + 1) then begin
                decr fp;
                if !fp > 0 then merge_into ws.w_fx.(!fp - 1) oset.(x)
              end
              else begin
                ws.w_fk.(!fp - 1) <- k + 1;
                let c = codes.(k) in
                if c >= 0 then begin
                  if present c && mark_get c <> 1 then begin
                    if vis.(c) = vep then
                      (* possibly incomplete: the bug *)
                      merge_into x oset.(c)
                    else begin
                      start c;
                      fpush c starts.(c)
                    end
                  end
                end
                else begin
                  let r = pool.(-c - 1) in
                  if not (is_local r) then
                    match reach_out_suspect dg r with
                    | None -> ()
                    | Some contrib -> merge_into x contrib
                end
              end
            done
          end
        end
      in
      List.iter
        (fun (r, dg) ->
          trace_naive dg r;
          let outset =
            let i = Oid.index r in
            if is_local r && i >= 0 && i < bound && vis.(i) = vep then
              Outset_store.elements store oset.(i)
            else []
          in
          Oid.Tbl.replace inref_outsets r outset)
        suspects
  | Independent ->
      (* §5.1: a full, separate trace per suspected inref; objects
         reached by several suspected inrefs are scanned once per
         inref ([w_vis] re-stamped per inref). *)
      List.iter
        (fun (r, dg) ->
          ws.w_vep <- ws.w_vep + 1;
          let vep = ws.w_vep in
          let acc = ref Oid.Set.empty in
          let visit_remote z =
            match reach_out_suspect dg z with
            | None -> ()
            | Some _ -> acc := Oid.Set.add z !acc
          in
          let visit_idx i =
            if present i && vis.(i) <> vep && mark_get i <> 1 then begin
              vis.(i) <- vep;
              mark_set i 2;
              incr suspect_visits;
              push i
            end
          in
          (if is_local r then begin
             let i = Oid.index r in
             if i >= 0 && i < bound then visit_idx i
           end
           else visit_remote r);
          while !sp > 0 do
            decr sp;
            let i = ws.w_stack.(!sp) in
            for k = starts.(i) to starts.(i + 1) - 1 do
              let c = codes.(k) in
              if c >= 0 then begin
                if c < bound then visit_idx c
              end
              else begin
                let rr = pool.(-c - 1) in
                if not (is_local rr) then visit_remote rr
              end
            done
          done;
          Oid.Tbl.replace inref_outsets r (Oid.Set.elements !acc))
        suspects);
  note "suspect";

  (* ---- assemble results ---- *)
  let in_results =
    List.map
      (fun (r, d, flagged) ->
        let suspected = (not flagged) && d > inp.in_delta in
        let outset =
          if suspected then
            Option.value ~default:[] (Oid.Tbl.find_opt inref_outsets r)
          else []
        in
        { i_ref = r; i_suspected = suspected; i_outset = outset })
      inp.in_inrefs
  in
  (* Insets are the inverse view of the suspected inrefs' outsets. *)
  let insets : Oid.t list ref Oid.Tbl.t = Oid.Tbl.create 64 in
  List.iter
    (fun res ->
      if res.i_suspected then
        List.iter
          (fun o ->
            match Oid.Tbl.find_opt insets o with
            | Some l -> l := res.i_ref :: !l
            | None -> Oid.Tbl.add insets o (ref [ res.i_ref ]))
          res.i_outset)
    in_results;
  let out_results =
    List.map
      (fun r ->
        match Oid.Tbl.find_opt outinfo r with
        | None ->
            {
              o_ref = r;
              o_dist = Ioref.infinity_dist;
              o_suspected = false;
              o_removed = true;
              o_inset = [];
            }
        | Some oi ->
            let inset =
              if oi.oi_clean then []
              else
                match Oid.Tbl.find_opt insets r with
                | Some l -> List.sort Oid.compare !l
                | None -> []
            in
            {
              o_ref = r;
              o_dist = oi.oi_dist;
              o_suspected = not oi.oi_clean;
              o_removed = false;
              o_inset = inset;
            })
      inp.in_outrefs
  in
  (* Unmarked present objects, ascending. *)
  let dead =
    let acc = ref [] in
    for i = bound - 1 downto 0 do
      if present i && mark_get i = 0 then acc := i :: !acc
    done;
    !acc
  in
  note "assemble";
  let st = Outset_store.stats store in
  let ot_stats =
    {
      clean_visits = !clean_visits;
      suspect_visits = !suspect_visits;
      distinct_outsets = st.Outset_store.distinct;
      union_calls = st.Outset_store.union_calls;
      memo_hits = st.Outset_store.memo_hits;
      inset_entries =
        Util.list_sum (fun o -> List.length o.o_inset) out_results;
      suspected_inrefs = List.length suspects;
      suspected_outrefs =
        List.length (List.filter (fun o -> o.o_suspected) out_results);
      workspace_bytes = Outset_store.approx_bytes store;
    }
  in
  { out_site = inp.in_site; dead; out_results; in_results; ot_stats }

(* ---- the atomic swap (§6.2) ---- *)

(* One site's swap metrics, each registered on first record. *)
type meters = {
  m_freed : int ref Lazy.t;
  m_traces : int ref Lazy.t;
  m_hit_rate : Metrics.hist Lazy.t;
  m_site_hit_rate : Metrics.hist Lazy.t;
  m_inset_entries : Metrics.hist Lazy.t;
}

let meters eng site =
  let metrics = Engine.metrics eng in
  let counter name = lazy (Metrics.counter_ref metrics name) in
  let hist name = lazy (Metrics.hist_ref metrics name) in
  {
    m_freed = counter "gc.objects_freed";
    m_traces = counter "gc.local_traces";
    m_hit_rate = hist "trace.outset_memo_hit_rate";
    m_site_hit_rate =
      lazy
        (Metrics.hist_ref metrics
           (Site.metric_label site "trace.outset_memo_hit_rate"));
    m_inset_entries = hist "trace.inset_entries";
  }

let apply ?(arrived = []) eng site m outcome =
  let tables = site.Site.tables in
  let delta = (Engine.config eng).Config.delta in
  let on_cleaned r = site.Site.hooks.Site.h_ioref_cleaned r in
  if (Engine.config eng).Config.oracle_checks then
    Dgc_oracle.Oracle.check_would_free eng site.Site.id outcome.dead;
  let freed = Heap.free site.Site.heap outcome.dead in
  let objects_freed = Lazy.force m.m_freed in
  objects_freed := !objects_freed + freed;
  incr (Lazy.force m.m_traces);
  let ts = outcome.ot_stats in
  if ts.union_calls > 0 then begin
    let rate = float_of_int ts.memo_hits /. float_of_int ts.union_calls in
    Metrics.observe (Lazy.force m.m_hit_rate) rate;
    Metrics.observe (Lazy.force m.m_site_hit_rate) rate
  end;
  Metrics.observe
    (Lazy.force m.m_inset_entries)
    (float_of_int ts.inset_entries);
  if freed > 0 then
    Engine.jlog eng ~cat:"gc" "%a freed %d (suspects: %d inrefs, %d outrefs)"
      Site_id.pp site.Site.id freed outcome.ot_stats.suspected_inrefs
      outcome.ot_stats.suspected_outrefs;
  (* Inrefs: install new suspicion status and outsets. *)
  List.iter
    (fun res ->
      match Tables.find_inref tables res.i_ref with
      | None -> ()
      | Some ir ->
          let was_clean = Ioref.inref_clean ~delta ir in
          ir.Ioref.ir_suspected <- res.i_suspected;
          ir.Ioref.ir_outset <- res.i_outset;
          ir.Ioref.ir_forced_clean <- false;
          ir.Ioref.ir_fresh <- false;
          if Ioref.inref_clean ~delta ir && not was_clean then
            on_cleaned res.i_ref)
    outcome.in_results;
  (* Outrefs: install distances, suspicion and insets. An untraced
     outref is removed unless it is pinned or its reference arrived
     during the window; a kept one installs as unsuspected. *)
  let removals = ref [] in
  let dist_updates = ref [] in
  List.iter
    (fun res ->
      match Tables.find_outref tables res.o_ref with
      | None -> ()
      | Some o ->
          if
            res.o_removed && o.Ioref.or_pins = 0
            && not (List.exists (Oid.equal res.o_ref) arrived)
          then begin
            Tables.remove_outref tables res.o_ref;
            removals := (res.o_ref, o.Ioref.or_inc) :: !removals
          end
          else begin
            let was_clean = Ioref.outref_clean o in
            if not res.o_removed then begin
              if o.Ioref.or_dist <> res.o_dist then
                dist_updates := (res.o_ref, res.o_dist) :: !dist_updates;
              o.Ioref.or_dist <- res.o_dist;
              o.Ioref.or_fresh <- false
            end;
            o.Ioref.or_suspected <- res.o_suspected;
            o.Ioref.or_inset <- res.o_inset;
            o.Ioref.or_forced_clean <- false;
            if Ioref.outref_clean o && not was_clean then on_cleaned res.o_ref
          end)
    outcome.out_results;
  (* The window's arrivals postdate the snapshot: clean them again on
     the new copy (§6.2). *)
  List.iter (fun r -> ignore (Engine.force_clean eng site r)) arrived;
  Engine.send_updates eng ~src:site.Site.id ~removals:!removals
    ~dists:!dist_updates;
  site.Site.trace_epoch <- site.Site.trace_epoch + 1
