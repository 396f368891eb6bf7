open Dgc_prelude
open Dgc_simcore
open Dgc_rts

type t = {
  eng : Engine.t;
  mutable alive : bool;
  crash_depth : int array;
  (* newest-first stacks of open windows; the head is in force *)
  mutable partitions : (int * Site_id.t list list) list;
  mutable drops : (int * float) list;
  mutable dups : (int * float) list;
  mutable slows : (int * float) list;
  mutable next_id : int;
  mutable injected : int;
}

let metrics t = Engine.metrics t.eng

let refresh_drop t =
  Engine.set_chaos_drop t.eng
    (match t.drops with (_, p) :: _ -> Some p | [] -> None)

let refresh_dup t =
  Engine.set_chaos_dup t.eng
    (match t.dups with (_, p) :: _ -> Some p | [] -> None)

let refresh_slow t =
  Engine.set_latency_factor t.eng
    (match t.slows with (_, f) :: _ -> f | [] -> 1.0)

let refresh_partition t =
  (* heal-then-repartition: closing one of two overlapping partitions
     briefly reconnects everything, which only releases parked
     messages early — never loses them *)
  Engine.heal t.eng;
  match t.partitions with
  | (_, groups) :: _ -> Engine.partition t.eng groups
  | [] -> ()

let fresh t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let skip t =
  Metrics.incr (metrics t) "chaos.skipped";
  fun () -> ()

(* Every injected fault also lands in the [chaos.injected] counter
   series, so the metrics export shows the fault rate over time next
   to the retry/drop rates it provokes. *)
let inject t =
  t.injected <- t.injected + 1;
  Engine.series_incr t.eng "chaos.injected"

(* Open a window; returns its closer. *)
let apply t ev =
  let n = Array.length (Engine.sites t.eng) in
  match ev with
  | Plan.Crash { site } ->
      if site < 0 || site >= n then skip t
      else begin
        inject t;
        let d = t.crash_depth.(site) in
        t.crash_depth.(site) <- d + 1;
        if d = 0 then begin
          Metrics.incr (metrics t) "chaos.crash";
          Engine.jlog t.eng ~cat:"chaos" "inject: crash site %d" site;
          Engine.crash t.eng (Site_id.of_int site)
        end;
        fun () ->
          let d = t.crash_depth.(site) - 1 in
          t.crash_depth.(site) <- d;
          if d = 0 then begin
            Metrics.incr (metrics t) "chaos.recover";
            Engine.jlog t.eng ~cat:"chaos" "undo: recover site %d" site;
            Engine.recover t.eng (Site_id.of_int site)
          end
      end
  | Plan.Partition { groups } -> (
      let groups =
        List.filter_map
          (fun g ->
            match List.filter (fun s -> s >= 0 && s < n) g with
            | [] -> None
            | g -> Some (List.map Site_id.of_int g))
          groups
      in
      match groups with
      | [] -> skip t
      | groups ->
          inject t;
          let id = fresh t in
          t.partitions <- (id, groups) :: t.partitions;
          Metrics.incr (metrics t) "chaos.partition";
          Engine.jlog t.eng ~cat:"chaos" "inject: partition (%d groups)"
            (List.length groups);
          refresh_partition t;
          fun () ->
            t.partitions <- List.filter (fun (i, _) -> i <> id) t.partitions;
            Metrics.incr (metrics t) "chaos.heal";
            Engine.jlog t.eng ~cat:"chaos" "undo: heal partition";
            refresh_partition t)
  | Plan.Drop { p } ->
      inject t;
      let id = fresh t in
      t.drops <- (id, p) :: t.drops;
      Metrics.incr (metrics t) "chaos.drop_burst";
      Engine.jlog t.eng ~cat:"chaos" "inject: drop burst p=%.2f" p;
      refresh_drop t;
      fun () ->
        t.drops <- List.filter (fun (i, _) -> i <> id) t.drops;
        Engine.jlog t.eng ~cat:"chaos" "undo: drop burst over";
        refresh_drop t
  | Plan.Dup { p } ->
      inject t;
      let id = fresh t in
      t.dups <- (id, p) :: t.dups;
      Metrics.incr (metrics t) "chaos.dup_burst";
      Engine.jlog t.eng ~cat:"chaos" "inject: dup burst p=%.2f" p;
      refresh_dup t;
      fun () ->
        t.dups <- List.filter (fun (i, _) -> i <> id) t.dups;
        Engine.jlog t.eng ~cat:"chaos" "undo: dup burst over";
        refresh_dup t
  | Plan.Slow { factor } ->
      inject t;
      let id = fresh t in
      t.slows <- (id, factor) :: t.slows;
      Metrics.incr (metrics t) "chaos.latency_storm";
      Engine.jlog t.eng ~cat:"chaos" "inject: latency storm x%.1f" factor;
      refresh_slow t;
      fun () ->
        t.slows <- List.filter (fun (i, _) -> i <> id) t.slows;
        Engine.jlog t.eng ~cat:"chaos" "undo: latency storm over";
        refresh_slow t

let arm eng plan =
  let t =
    {
      eng;
      alive = true;
      crash_depth = Array.make (Array.length (Engine.sites eng)) 0;
      partitions = [];
      drops = [];
      dups = [];
      slows = [];
      next_id = 0;
      injected = 0;
    }
  in
  List.iter
    (fun { Plan.at_ms; dur_ms; ev } ->
      Engine.schedule eng ~delay:(Sim_time.of_millis at_ms) (fun () ->
          if t.alive then begin
            let close = apply t ev in
            Engine.schedule eng ~delay:(Sim_time.of_millis dur_ms) (fun () ->
                if t.alive then close ())
          end))
    plan.Plan.events;
  t

let quiesce t =
  if t.alive then begin
    t.alive <- false;
    Engine.jlog t.eng ~cat:"chaos" "quiesce: closing all fault windows";
    Array.iteri
      (fun i d ->
        if d > 0 then begin
          t.crash_depth.(i) <- 0;
          Metrics.incr (metrics t) "chaos.recover";
          Engine.recover t.eng (Site_id.of_int i)
        end)
      t.crash_depth;
    t.partitions <- [];
    Engine.heal t.eng;
    t.drops <- [];
    t.dups <- [];
    t.slows <- [];
    refresh_drop t;
    refresh_dup t;
    refresh_slow t
  end

let injected t = t.injected

let active t =
  Array.fold_left (fun a d -> a + min d 1) 0 t.crash_depth
  + List.length t.partitions + List.length t.drops + List.length t.dups
  + List.length t.slows

let active_mask t =
  (if Array.exists (fun d -> d > 0) t.crash_depth then 1 else 0)
  lor (if t.partitions <> [] then 2 else 0)
  lor (if t.drops <> [] then 4 else 0)
  lor (if t.dups <> [] then 8 else 0)
  lor if t.slows <> [] then 16 else 0

