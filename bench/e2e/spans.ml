(* In-memory span recorder for the traced rep.

   A span is (name, start, end, parent) within one workload rep. Spans nest through an
   explicit stack, live in growable arrays while the rep runs, and are
   written once at exit as Chrome trace-event JSON (Perfetto opens it).
   A span's self time is its duration minus its children's. *)

module Json = Dgc_telemetry.Json

type t = {
  mutable names : string array;
  mutable start : float array;
  mutable stop : float array;
  mutable parent : int array;
  mutable n : int;
  mutable stack : int list;
  rep : int;  (** the rep these spans belong to *)
}

let create ~rep () =
  let cap = 1024 in
  {
    names = Array.make cap "";
    start = Array.make cap 0.;
    stop = Array.make cap 0.;
    parent = Array.make cap (-1);
    n = 0;
    stack = [];
    rep;
  }

let count t = t.n

let grow t =
  let cap = 2 * Array.length t.start in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.names <- ext t.names "";
  t.start <- ext t.start 0.;
  t.stop <- ext t.stop 0.;
  t.parent <- ext t.parent (-1)

(* The clock is read last on entry and first on exit, so the
   recorder's own bookkeeping falls outside the span it records. *)
let enter t name =
  if t.n = Array.length t.start then grow t;
  let i = t.n in
  t.names.(i) <- name;
  t.parent.(i) <- (match t.stack with p :: _ -> p | [] -> -1);
  t.n <- i + 1;
  t.stack <- i :: t.stack;
  t.start.(i) <- Clock.now ()

let leave t =
  let now = Clock.now () in
  match t.stack with
  | i :: rest ->
      t.stop.(i) <- now;
      t.stack <- rest
  | [] -> invalid_arg "Spans.leave: no open span"

let span t name f =
  enter t name;
  match f () with
  | v ->
      leave t;
      v
  | exception e ->
      leave t;
      raise e

(* Add a span whose interval was measured elsewhere. *)
let record t name ~start ~stop =
  enter t name;
  let i = t.n - 1 in
  t.start.(i) <- start;
  t.stop.(i) <- stop;
  t.stack <- List.tl t.stack

let duration t i = t.stop.(i) -. t.start.(i)

type total = { calls : int; total_s : float }

(* Per-name call count and inclusive seconds. *)
let totals t =
  let tbl = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    let c = Option.value (Hashtbl.find_opt tbl t.names.(i)) ~default:{ calls = 0; total_s = 0. } in
    Hashtbl.replace tbl t.names.(i) { calls = c.calls + 1; total_s = c.total_s +. duration t i }
  done;
  fun name -> Option.value (Hashtbl.find_opt tbl name) ~default:{ calls = 0; total_s = 0. }

(* Chrome trace-event JSON: one complete ("X") event per span, times
   in microseconds from the first span, on the rep's track. Spans past
   [max_events] are left out of the file (the count is recorded), not
   out of [totals]. *)
let to_chrome ?(max_events = 200_000) ~workload t =
  let t0 = if t.n > 0 then t.start.(0) else 0. in
  let us x = Json.Float (Float.round ((x -. t0) *. 1e7) /. 10.) in
  let written = min t.n max_events in
  let events =
    List.init written (fun i ->
        let layer =
          match String.index_opt t.names.(i) '.' with
          | Some k -> String.sub t.names.(i) 0 k
          | None -> t.names.(i)
        in
        Json.Obj
          [
            ("name", Json.Str t.names.(i));
            ("cat", Json.Str layer);
            ("ph", Json.Str "X");
            ("ts", us t.start.(i));
            ("dur", Json.Float (Float.round (duration t i *. 1e7) /. 10.));
            ("pid", Json.Int 1);
            ("tid", Json.Int t.rep);
            ("args", Json.Obj [ ("id", Json.Int i); ("parent", Json.Int t.parent.(i)) ]);
          ])
  in
  Json.Obj
    [
      ("traceEvents", Json.Arr events);
      ("displayTimeUnit", Json.Str "ms");
      ( "otherData",
        Json.Obj
          [
            ("workload", Json.Str workload);
            ("spans", Json.Int t.n);
            ("spans_written", Json.Int written);
          ] );
    ]
