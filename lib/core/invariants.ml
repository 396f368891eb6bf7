open Dgc_prelude
open Dgc_heap
open Dgc_rts

type kind =
  | Local_safety
  | Auxiliary
  | Remote_safety
  | Visited_hygiene
  | Distance_sanity

let kind_name = function
  | Local_safety -> "local-safety"
  | Auxiliary -> "auxiliary"
  | Remote_safety -> "remote-safety"
  | Visited_hygiene -> "visited-hygiene"
  | Distance_sanity -> "distance-sanity"

type violation = {
  v_kind : kind;
  v_site : Site_id.t;
  v_subject : Oid.t option;
  v_message : string;
}

exception Violation of violation list

let to_string v = kind_name v.v_kind ^ ": " ^ v.v_message
let strings vs = List.map to_string vs

let pp_violation ppf v = Format.pp_print_string ppf (to_string v)

let () =
  Printexc.register_printer (function
    | Violation vs ->
        Some
          (Format.asprintf "Invariants.Violation [@[<v>%a@]]"
             (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_violation)
             vs)
    | _ -> None)

let delta eng = (Engine.config eng).Config.delta

let note acc ~kind ~site ?subject fmt =
  Format.kasprintf
    (fun s ->
      acc :=
        { v_kind = kind; v_site = site; v_subject = subject; v_message = s }
        :: !acc)
    fmt

let no_skip : Site_id.t -> bool = fun _ -> false

(* Apply [f] to every site the caller did not ask to skip (sites in an
   open trace window hold the old table copy, §6.2, and are not
   checkable mid-window). *)
let each_site ?(skip = no_skip) eng f =
  Array.iter
    (fun s -> if not (skip s.Site.id) then f s)
    (Engine.sites eng)

(* --- local safety (§6.1) ------------------------------------------------- *)

let local_safety ?skip eng =
  let acc = ref [] in
  each_site ?skip eng (fun s ->
      let graph = Dense.of_heap s.Site.heap in
      (* Ground truth: for every non-flagged inref, the set of remote
         references locally reachable from it. *)
      let reach_of_inref =
        List.filter_map
          (fun ir ->
            if ir.Ioref.ir_flagged then None
            else begin
              let _locals, remotes =
                Reach.closure graph ~from:[ ir.Ioref.ir_target ]
              in
              Some (ir, remotes)
            end)
          (Tables.inrefs s.Site.tables)
      in
      Tables.iter_outrefs s.Site.tables (fun o ->
          if not (Ioref.outref_clean o) then
            List.iter
              (fun (ir, remotes) ->
                if
                  Oid.Set.mem o.Ioref.or_target remotes
                  && not
                       (List.exists
                          (Oid.equal ir.Ioref.ir_target)
                          o.Ioref.or_inset)
                then
                  note acc ~kind:Local_safety ~site:s.Site.id
                    ~subject:o.Ioref.or_target
                    "%a: suspected outref %a is reachable from inref %a but \
                     its inset omits it"
                    Site_id.pp s.Site.id Oid.pp o.Ioref.or_target Oid.pp
                    ir.Ioref.ir_target)
              reach_of_inref));
  List.rev !acc

(* --- auxiliary invariant (§6.1) ------------------------------------------- *)

let auxiliary ?skip eng =
  let acc = ref [] in
  each_site ?skip eng (fun s ->
      Tables.iter_outrefs s.Site.tables (fun o ->
          if not (Ioref.outref_clean o) then
            List.iter
              (fun i ->
                match Tables.find_inref s.Site.tables i with
                | Some ir when Ioref.inref_clean ~delta:(delta eng) ir ->
                    note acc ~kind:Auxiliary ~site:s.Site.id
                      ~subject:o.Ioref.or_target
                      "%a: inset of suspected outref %a names the clean inref \
                       %a"
                      Site_id.pp s.Site.id Oid.pp o.Ioref.or_target Oid.pp i
                | Some _ | None -> ())
              o.Ioref.or_inset));
  List.rev !acc

(* --- remote safety (§6.1.2) ------------------------------------------------ *)

let remote_safety ?skip eng =
  let acc = ref [] in
  each_site ?skip eng (fun s ->
      Tables.iter_inrefs s.Site.tables (fun ir ->
          if
            (not ir.Ioref.ir_flagged)
            && not (Ioref.inref_clean ~delta:(delta eng) ir)
          then begin
            let i = ir.Ioref.ir_target in
            each_site ?skip eng (fun p ->
                if not (Site_id.equal p.Site.id s.Site.id) then begin
                  let holds_in_heap =
                    Heap.fold p.Site.heap ~init:false ~f:(fun found o ->
                        found || List.exists (Oid.equal i) o.Heap.fields)
                  in
                  let holds_in_roots =
                    List.exists (Oid.equal i) (Engine.app_roots eng p.Site.id)
                  in
                  if holds_in_heap || holds_in_roots then begin
                    let listed = Ioref.find_source ir p.Site.id <> None in
                    let clean_outref =
                      match Tables.find_outref p.Site.tables i with
                      | Some o -> Ioref.outref_clean o
                      | None -> false
                    in
                    if (not listed) && not clean_outref then
                      note acc ~kind:Remote_safety ~site:s.Site.id ~subject:i
                        "%a: suspected inref %a misses holder %a (and %a has \
                         no clean outref for it)"
                        Site_id.pp s.Site.id Oid.pp i Site_id.pp p.Site.id
                        Site_id.pp p.Site.id
                  end
                end)
          end));
  List.rev !acc

(* --- visited-mark hygiene --------------------------------------------------- *)

let visited_hygiene ?skip eng =
  let acc = ref [] in
  each_site ?skip eng (fun s ->
      Tables.iter_inrefs s.Site.tables (fun ir ->
          if
            (not (Trace_id.Set.is_empty ir.Ioref.ir_visited))
            && (not ir.Ioref.ir_suspected)
            && (not ir.Ioref.ir_forced_clean)
            && not ir.Ioref.ir_flagged
          then
            note acc ~kind:Visited_hygiene ~site:s.Site.id
              ~subject:ir.Ioref.ir_target
              "%a: visited marks on never-suspected inref %a" Site_id.pp
              s.Site.id Oid.pp ir.Ioref.ir_target);
      Tables.iter_outrefs s.Site.tables (fun o ->
          if
            (not (Trace_id.Set.is_empty o.Ioref.or_visited))
            && (not o.Ioref.or_suspected)
            && not o.Ioref.or_forced_clean
          then
            note acc ~kind:Visited_hygiene ~site:s.Site.id
              ~subject:o.Ioref.or_target
              "%a: visited marks on never-suspected outref %a" Site_id.pp
              s.Site.id Oid.pp o.Ioref.or_target));
  List.rev !acc

(* --- distance sanity ---------------------------------------------------------- *)

(* An inref's per-source distance estimates the shortest root path
   that ends with that inter-site reference: at most one more than the
   true distance of some holder of the reference at the source site.
   Estimates are conservative (start at 1, grow toward the truth), so
   in a settled system: recorded <= 1 + min holder distance. *)
let distance_sanity ?skip eng =
  let acc = ref [] in
  let truth = Dgc_oracle.Oracle.distances eng in
  each_site ?skip eng (fun s ->
      Tables.iter_inrefs s.Site.tables (fun ir ->
          let i = ir.Ioref.ir_target in
          List.iter
            (fun src ->
              let p = Engine.site eng src.Ioref.src_site in
              let holder_truth =
                Heap.fold p.Site.heap ~init:None ~f:(fun best o ->
                    if List.exists (Oid.equal i) o.Heap.fields then
                      match Oid.Tbl.find_opt truth o.Heap.oid with
                      | Some d ->
                          Some
                            (match best with
                            | Some b -> min b d
                            | None -> d)
                      | None -> best
                    else best)
              in
              match holder_truth with
              | Some h ->
                  if
                    src.Ioref.src_dist > h + 1
                    && src.Ioref.src_dist < Ioref.infinity_dist
                  then
                    note acc ~kind:Distance_sanity ~site:s.Site.id ~subject:i
                      "%a: inref %a source %a records %d but a live holder \
                       sits at true distance %d"
                      Site_id.pp s.Site.id Oid.pp i Site_id.pp
                      src.Ioref.src_site src.Ioref.src_dist h
              | None -> (* garbage or stale holder: any estimate *) ())
            ir.Ioref.ir_sources));
  List.rev !acc

(* --- batteries --------------------------------------------------------------- *)

let per_step ?skip eng =
  List.concat
    [
      local_safety ?skip eng;
      auxiliary ?skip eng;
      remote_safety ?skip eng;
      visited_hygiene ?skip eng;
    ]

let check_all ?skip eng = per_step ?skip eng @ distance_sanity ?skip eng

let check_exn ?skip eng =
  match per_step ?skip eng with [] -> () | vs -> raise (Violation vs)
