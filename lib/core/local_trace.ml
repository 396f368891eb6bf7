open Dgc_prelude
open Dgc_simcore
open Dgc_heap
open Dgc_rts

type mode = Bottom_up | Independent | Naive_bottom_up

(* Byte flags: '\001' set, '\000' clear. *)
let is_set b k = Bytes.unsafe_get b k <> '\000'
let set b k v = Bytes.unsafe_set b k (if v then '\001' else '\000')

type input = {
  in_site : Site_id.t;
  in_graph : Dense.t;
  in_roots : Oid.t list;
  in_irs : Ioref.inref array;
  in_ir_dists : int array;
  in_ir_flagged : Bytes.t;
  in_ors : Ioref.outref array;
  in_delta : int;
}

(* Target order, from the tables' ordered views: traversal order here
   decides outset-store interning order, and with it [ot_stats]
   (distinct_outsets / union_calls / memo_hits) in the outcome —
   determinism is observable. *)
let input_of_snapshot eng site snap =
  let tables = site.Site.tables in
  let irs = Tables.inref_array tables in
  let n = Array.length irs in
  let dists = Array.make n 0 and flagged = Bytes.make n '\000' in
  for k = 0 to n - 1 do
    let ir = irs.(k) in
    dists.(k) <- Ioref.inref_dist ir;
    if ir.Ioref.ir_flagged then set flagged k true
  done;
  {
    in_site = site.Site.id;
    in_graph = Snapshot.dense snap;
    in_roots =
      Snapshot.persistent_roots snap @ Engine.app_roots eng site.Site.id;
    in_irs = irs;
    in_ir_dists = dists;
    in_ir_flagged = flagged;
    in_ors = Tables.outref_array tables;
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
  i_irs : Ioref.inref array;
  i_suspected : Bytes.t;
  i_outsets : Oid.t list array;
  o_ors : Ioref.outref array;
  o_dists : int array;
  o_suspected : Bytes.t;
  o_removed : Bytes.t;
  o_insets : Oid.t list array;
  ot_stats : stats;
}

(* Reusable index-space workspace. Validity of every per-object cell is
   epoch-stamped, so consecutive traces pay no O(heap) clears:

   - [w_mark.(i) = epoch lsl 2 lor state] with state 1 = Clean,
     2 = Suspect; a cell whose epoch part differs is unmarked.
   - [w_num]/[w_lead]/[w_oset] (Tarjan visit number, component leader,
     outset id) are valid iff [w_nume.(i)] carries the current epoch —
     they are always written together by the suspect phase's [start].
   - [w_vis] is a sub-trace visited stamp against [w_vep] (one bump
     per §5.1 independent trace, one for the whole naive scan).
   - [w_single.(p)] is the singleton outset of the outref at input
     position [p], valid iff [w_se.(p)] carries the epoch.
   - [w_otg] holds the input's outref targets (ascending), for the
     binary search from a remote reference to its outref.

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
  mutable w_single : int array;
  mutable w_se : int array;
  mutable w_otg : Oid.t array;
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
    w_single = [||];
    w_se = [||];
    w_otg = [||];
    w_epoch = 0;
    w_vep = 0;
  }

let ws_ensure ws cap ~outrefs =
  if cap > ws.w_cap then begin
    let c = max cap (max 1024 (2 * ws.w_cap)) in
    ws.w_mark <- Array.make c 0;
    ws.w_num <- Array.make c 0;
    ws.w_nume <- Array.make c 0;
    ws.w_lead <- Array.make c 0;
    ws.w_oset <- Array.make c 0;
    ws.w_vis <- Array.make c 0;
    ws.w_cap <- c
  end;
  let fit a n = if Array.length a >= n then a else Array.make (2 * n) 0 in
  ws.w_single <- fit ws.w_single outrefs;
  ws.w_se <- fit ws.w_se outrefs;
  if Array.length ws.w_otg < outrefs then
    ws.w_otg <- Array.make (2 * outrefs) (Oid.make ~site:(Site_id.of_int 0) ~index:0)

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
  let irs = inp.in_irs and idist = inp.in_ir_dists in
  let n_in = Array.length irs and n_out = Array.length inp.in_ors in
  ws_ensure ws bound ~outrefs:n_out;
  ws.w_epoch <- ws.w_epoch + 1;
  let epoch = ws.w_epoch in
  let mark = ws.w_mark
  and num = ws.w_num
  and nume = ws.w_nume
  and lead = ws.w_lead
  and oset = ws.w_oset
  and vis = ws.w_vis
  and single = ws.w_single
  and se = ws.w_se
  and otg = ws.w_otg in
  for p = 0 to n_out - 1 do
    otg.(p) <- inp.in_ors.(p).Ioref.or_target
  done;
  (* 0 unmarked, 1 Clean, 2 Suspect *)
  let mark_get i =
    let m = mark.(i) in
    if m lsr 2 = epoch then m land 3 else 0
  in
  let mark_set i v = mark.(i) <- (epoch lsl 2) lor v in
  let num_valid i = nume.(i) = epoch in
  let note tag = match probe with Some f -> f tag | None -> () in
  let is_local r = Site_id.equal (Oid.site r) inp.in_site in
  let clean_visits = ref 0 in
  let suspect_visits = ref 0 in

  (* Per-outref results, by input position; filled as the trace first
     reaches each outref. An outref never reached stays removed. *)
  let o_dists = Array.make n_out Ioref.infinity_dist in
  let o_suspected = Bytes.make n_out '\000' in
  let o_removed = Bytes.make n_out '\001' in
  (* Position of a remote reference among the outrefs, -1 if none. *)
  let pos_of r =
    let lo = ref 0 and hi = ref (n_out - 1) and found = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) lsr 1 in
      let c = Oid.compare otg.(mid) r in
      if c = 0 then begin
        found := mid;
        lo := !hi + 1
      end
      else if c < 0 then lo := mid + 1
      else hi := mid - 1
    done;
    !found
  in
  (* The position of the capture's pool entry [q] among the outrefs
     (-1: a remote reference with no outref, -2: a local one). *)
  let pool_pos q =
    let r = pool.(q) in
    if is_local r then -2 else pos_of r
  in
  (* Remote references the tables hold no outref for (none in a
     consistent state): the trace still follows them as it would an
     outref, keyed by oid — [true] once reached from a clean root. *)
  let extras = ref None in
  let extra () =
    match !extras with
    | Some tbl -> tbl
    | None ->
        let tbl = Oid.Tbl.create 8 in
        extras := Some tbl;
        tbl
  in

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

  (* Every non-flagged inref, by distance, ties in table (target)
     order: the clean roots (distance <= Δ) then the suspects. *)
  let rooted =
    let ks = ref [] in
    for k = n_in - 1 downto 0 do
      if not (is_set inp.in_ir_flagged k) then ks := k :: !ks
    done;
    let ks = Array.of_list !ks in
    Array.stable_sort (fun x y -> Int.compare idist.(x) idist.(y)) ks;
    ks
  in
  let n_rooted = Array.length rooted in
  let n_clean =
    let k = ref 0 in
    while !k < n_rooted && idist.(rooted.(!k)) <= inp.in_delta do
      incr k
    done;
    !k
  in

  (* ---- clean phase: trace distance-ordered clean roots (§3) ----
     The distance-0 root group runs first, from an unmarked workspace;
     the inref groups follow in increasing distance (never negative),
     ties in table order. [recording]: the root group on a memo miss,
     which lists the remote references it reaches first. *)
  let recording = ref false and reached = ref [] in
  (* First reach sets the distance (ascending root order makes it the
     minimum); any reach from a clean root makes it clean. *)
  let reach_clean dg p r =
    if p >= 0 then begin
      if is_set o_removed p then begin
        if !recording then reached := r :: !reached;
        set o_removed p false;
        o_dists.(p) <- dg + 1
      end
    end
    else begin
      let tbl = extra () in
      if not (Oid.Tbl.mem tbl r) then begin
        if !recording then reached := r :: !reached;
        Oid.Tbl.add tbl r true
      end
    end
  in
  let clean_root dg r =
    if is_local r then begin
      let i = Oid.index r in
      if i >= 0 && i < bound && present i && mark_get i = 0 then begin
        mark_set i 1;
        incr clean_visits;
        push i
      end
    end
    else reach_clean dg (pos_of r) r
  in
  let drain_clean dg =
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
          let q = -c - 1 in
          let p = pool_pos q in
          if p <> -2 then reach_clean dg p pool.(q)
        end
      done
    done
  in
  (match memo with
  | Some m when memo_valid m inp ->
      m.m_hits <- m.m_hits + 1;
      Dense.iter_set m.m_marked (fun i -> mark_set i 1);
      clean_visits := m.m_visits;
      List.iter (fun r -> reach_clean 0 (pos_of r) r) m.m_remotes
  | Some m ->
      m.m_misses <- m.m_misses + 1;
      recording := true;
      List.iter (clean_root 0) inp.in_roots;
      drain_clean 0;
      recording := false;
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
  | None ->
      List.iter (clean_root 0) inp.in_roots;
      drain_clean 0);
  for j = 0 to n_clean - 1 do
    let k = rooted.(j) in
    let dg = idist.(k) in
    clean_root dg irs.(k).Ioref.ir_target;
    drain_clean dg
  done;
  note "clean";

  (* ---- suspect phase ---- *)
  let store = Outset_store.create () in
  let singleton p r =
    if se.(p) = epoch then single.(p)
    else begin
      let id = Outset_store.singleton store r in
      single.(p) <- id;
      se.(p) <- epoch;
      id
    end
  in
  (* Encountering a remote reference from a suspected trace rooted at
     distance [dg]: returns the outset contribution (-1 if the outref
     is clean). *)
  let reach_suspect dg p r =
    if p >= 0 then begin
      if is_set o_removed p then begin
        set o_removed p false;
        o_dists.(p) <- dg + 1;
        set o_suspected p true;
        singleton p r
      end
      else if is_set o_suspected p then singleton p r
      else -1
    end
    else begin
      let tbl = extra () in
      match Oid.Tbl.find tbl r with
      | true -> -1
      | false -> Outset_store.singleton store r
      | exception Not_found ->
          Oid.Tbl.add tbl r false;
          Outset_store.singleton store r
    end
  in

  let i_outsets = Array.make n_in [] in

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
  let iter_suspects f =
    for j = n_clean to n_rooted - 1 do
      let k = rooted.(j) in
      f k idist.(k) irs.(k).Ioref.ir_target
    done
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
                  let q = -c - 1 in
                  let p = pool_pos q in
                  if p <> -2 then begin
                    let contrib = reach_suspect dg p pool.(q) in
                    if contrib >= 0 then
                      oset.(x) <- Outset_store.union store oset.(x) contrib
                  end
                end
              end
            done
          end
        end
      in
      iter_suspects (fun k dg r ->
          trace_suspected dg r;
          let i = Oid.index r in
          if is_local r && i >= 0 && i < bound && num_valid i then
            i_outsets.(k) <- Outset_store.elements store oset.(i)
          (* else: object clean or absent *))
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
                  let q = -c - 1 in
                  let p = pool_pos q in
                  if p <> -2 then begin
                    let contrib = reach_suspect dg p pool.(q) in
                    if contrib >= 0 then merge_into x contrib
                  end
                end
              end
            done
          end
        end
      in
      iter_suspects (fun k dg r ->
          trace_naive dg r;
          let i = Oid.index r in
          if is_local r && i >= 0 && i < bound && vis.(i) = vep then
            i_outsets.(k) <- Outset_store.elements store oset.(i))
  | Independent ->
      (* §5.1: a full, separate trace per suspected inref; objects
         reached by several suspected inrefs are scanned once per
         inref ([w_vis] re-stamped per inref). *)
      iter_suspects (fun k dg r ->
          ws.w_vep <- ws.w_vep + 1;
          let vep = ws.w_vep in
          let acc = ref Oid.Set.empty in
          let visit_remote p z =
            if reach_suspect dg p z >= 0 then acc := Oid.Set.add z !acc
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
           else visit_remote (pos_of r) r);
          while !sp > 0 do
            decr sp;
            let i = ws.w_stack.(!sp) in
            for k = starts.(i) to starts.(i + 1) - 1 do
              let c = codes.(k) in
              if c >= 0 then begin
                if c < bound then visit_idx c
              end
              else begin
                let q = -c - 1 in
                let p = pool_pos q in
                if p <> -2 then visit_remote p pool.(q)
              end
            done
          done;
          i_outsets.(k) <- Oid.Set.elements !acc));
  note "suspect";

  (* ---- assemble results ---- *)
  let i_suspected = Bytes.make n_in '\000' in
  for j = n_clean to n_rooted - 1 do
    set i_suspected rooted.(j) true
  done;
  (* Insets are the inverse view of the suspected inrefs' outsets;
     walking the inrefs down the target order builds each ascending. *)
  let o_insets = Array.make n_out [] in
  let inset_entries = ref 0 in
  for k = n_in - 1 downto 0 do
    if is_set i_suspected k then
      List.iter
        (fun o ->
          let p = pos_of o in
          if p >= 0 && is_set o_suspected p then begin
            o_insets.(p) <- irs.(k).Ioref.ir_target :: o_insets.(p);
            incr inset_entries
          end)
        i_outsets.(k)
  done;
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
      inset_entries = !inset_entries;
      suspected_inrefs = n_rooted - n_clean;
      suspected_outrefs =
        (let n = ref 0 in
         for p = 0 to n_out - 1 do
           if is_set o_suspected p then incr n
         done;
         !n);
      workspace_bytes = Outset_store.approx_bytes store;
    }
  in
  {
    out_site = inp.in_site;
    dead;
    i_irs = irs;
    i_suspected;
    i_outsets;
    o_ors = inp.in_ors;
    o_dists;
    o_suspected;
    o_removed;
    o_insets;
    ot_stats;
  }

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
  let freed = Sweep.free eng site outcome.dead in
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
  (* Inrefs: install new suspicion status and outsets. A sampled
     record still in the table takes them directly; one removed since
     gives way to the target's current inref, if any. *)
  let irs = outcome.i_irs in
  for k = 0 to Array.length irs - 1 do
    let ir = irs.(k) in
    let ir =
      if ir.Ioref.ir_view >= 0 then ir
      else
        match Tables.find_inref tables ir.Ioref.ir_target with
        | Some now -> now
        | None -> ir
    in
    if ir.Ioref.ir_view >= 0 then begin
      let was_clean = Ioref.inref_clean ~delta ir in
      ir.Ioref.ir_suspected <- is_set outcome.i_suspected k;
      Tables.set_inref_outset tables ir outcome.i_outsets.(k);
      ir.Ioref.ir_forced_clean <- false;
      ir.Ioref.ir_fresh <- false;
      if (not was_clean) && Ioref.inref_clean ~delta ir then
        on_cleaned ir.Ioref.ir_target
    end
  done;
  (* Outrefs: install distances, suspicion and insets, the same way.
     An untraced outref is removed unless it is pinned or its reference
     arrived during the window; a kept one installs as unsuspected. *)
  let removals = ref [] in
  let dist_updates = ref [] in
  let ors = outcome.o_ors in
  for k = 0 to Array.length ors - 1 do
    let o = ors.(k) in
    let r = o.Ioref.or_target in
    let o =
      if o.Ioref.or_view >= 0 then o
      else match Tables.find_outref tables r with Some now -> now | None -> o
    in
    if o.Ioref.or_view >= 0 then begin
      let removed = is_set outcome.o_removed k in
      if
        removed && o.Ioref.or_pins = 0
        && not (List.exists (Oid.equal r) arrived)
      then begin
        Tables.remove_outref tables r;
        removals := (r, o.Ioref.or_inc) :: !removals
      end
      else begin
        let was_clean = Ioref.outref_clean o in
        if not removed then begin
          let dist = outcome.o_dists.(k) in
          if o.Ioref.or_dist <> dist then
            dist_updates := (r, dist) :: !dist_updates;
          o.Ioref.or_dist <- dist;
          o.Ioref.or_fresh <- false
        end;
        o.Ioref.or_suspected <- is_set outcome.o_suspected k;
        Tables.set_outref_inset tables o outcome.o_insets.(k);
        o.Ioref.or_forced_clean <- false;
        if (not was_clean) && Ioref.outref_clean o then on_cleaned r
      end
    end
  done;
  (* The window's arrivals postdate the snapshot: clean them again on
     the new copy (§6.2). *)
  List.iter (fun r -> ignore (Engine.force_clean eng site r)) arrived;
  Engine.send_updates eng ~src:site.Site.id ~removals:!removals
    ~dists:!dist_updates;
  site.Site.trace_epoch <- site.Site.trace_epoch + 1
