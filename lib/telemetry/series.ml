type kind = Counter | Gauge

let kind_name = function Counter -> "counter" | Gauge -> "gauge"

type series = {
  s_kind : kind;
  s_win : float;  (** the registry's bucket width *)
  s_max : int;  (** the registry's retention bound *)
  buckets : (int, float) Hashtbl.t;
  mutable lo : int;  (** oldest retained bucket index *)
  mutable hi : int;  (** newest bucket index written *)
  mutable any : bool;  (** false until the first write *)
  mutable s_total : float;  (** counter: cumulative sum; gauge: last *)
  mutable s_evicted : int;
}

type t = {
  win : float;
  max_buckets : int;
  tbl : (string, series) Hashtbl.t;
}

let create ?(window = 1.0) ?(max_buckets = 512) () =
  if window <= 0. then invalid_arg "Series.create: window";
  if max_buckets <= 0 then invalid_arg "Series.create: max_buckets";
  { win = window; max_buckets; tbl = Hashtbl.create 16 }

let window t = t.win

let series_ref t name ~kind =
  match Hashtbl.find_opt t.tbl name with
  | Some s ->
      if s.s_kind <> kind then
        invalid_arg
          (Printf.sprintf "Series: %S is a %s, recorded as a %s" name
             (kind_name s.s_kind) (kind_name kind));
      s
  | None ->
      let s =
        {
          s_kind = kind;
          s_win = t.win;
          s_max = t.max_buckets;
          buckets = Hashtbl.create 32;
          lo = 0;
          hi = 0;
          any = false;
          s_total = 0.;
          s_evicted = 0;
        }
      in
      Hashtbl.add t.tbl name s;
      s

let bucket_of s at = int_of_float (floor (Float.max 0. at /. s.s_win))

let touch s i =
  if not s.any then begin
    s.any <- true;
    s.lo <- i;
    s.hi <- i
  end
  else begin
    if i < s.lo then s.lo <- i;
    if i > s.hi then s.hi <- i
  end;
  (* Evict oldest buckets past the retention bound. The index range is
     walked rather than the (sparse) table, so eviction stays O(range). *)
  while s.hi - s.lo + 1 > s.s_max do
    if Hashtbl.mem s.buckets s.lo then begin
      Hashtbl.remove s.buckets s.lo;
      s.s_evicted <- s.s_evicted + 1
    end;
    s.lo <- s.lo + 1
  done

let add_to s ~at n =
  let i = bucket_of s at in
  let v = float_of_int n in
  Hashtbl.replace s.buckets i
    (v +. Option.value ~default:0. (Hashtbl.find_opt s.buckets i));
  s.s_total <- s.s_total +. v;
  touch s i

let set_to s ~at v =
  let i = bucket_of s at in
  Hashtbl.replace s.buckets i v;
  s.s_total <- v;
  touch s i

let add t name ~at n = add_to (series_ref t name ~kind:Counter) ~at n
let incr t name ~at = add t name ~at 1
let set t name ~at v = set_to (series_ref t name ~kind:Gauge) ~at v

let names t =
  Hashtbl.fold (fun k s acc -> (k, s.s_kind) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let points t name =
  match Hashtbl.find_opt t.tbl name with
  | None -> []
  | Some s ->
      Hashtbl.fold (fun i v acc -> (i, v) :: acc) s.buckets []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      |> List.map (fun (i, v) -> (float_of_int i *. t.win, v))

let total t name =
  match Hashtbl.find_opt t.tbl name with Some s -> s.s_total | None -> 0.

let evicted t name =
  match Hashtbl.find_opt t.tbl name with Some s -> s.s_evicted | None -> 0

(* --- labels ------------------------------------------------------------ *)

(* "bytes_resident{site=2}" -> ("bytes_resident", Some ("site", "2")) *)
let split_label name =
  match String.index_opt name '{' with
  | None -> (name, None)
  | Some i when String.length name > i + 1 && name.[String.length name - 1] = '}'
    -> (
      let inner = String.sub name (i + 1) (String.length name - i - 2) in
      match String.index_opt inner '=' with
      | Some j ->
          ( String.sub name 0 i,
            Some
              ( String.sub inner 0 j,
                String.sub inner (j + 1) (String.length inner - j - 1) ) )
      | None -> (name, None))
  | Some _ -> (name, None)

let sanitize base =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    base

(* --- export ------------------------------------------------------------ *)

(* A gauge's running total is its last value, so both kinds expose
   [s_total] as the final sample. *)
let last_value t name =
  match Hashtbl.find_opt t.tbl name with None -> 0. | Some s -> s.s_total

let to_json t =
  let series =
    List.map
      (fun (name, k) ->
        let pts = points t name in
        let mx =
          List.fold_left (fun m (_, v) -> Float.max m v) neg_infinity pts
        in
        let last = match List.rev pts with (_, v) :: _ -> v | [] -> 0. in
        ( name,
          Json.Obj
            [
              ("kind", Json.Str (kind_name k));
              ("n", Json.Int (List.length pts));
              ("max", Json.Float (if pts = [] then 0. else mx));
              ("last", Json.Float last);
              ("total", Json.Float (total t name));
              ( "points",
                Json.Arr
                  (List.map
                     (fun (at, v) ->
                       Json.Arr [ Json.Float at; Json.Float v ])
                     pts) );
            ] ))
      (names t)
  in
  Json.Obj [ ("window", Json.Float t.win); ("series", Json.Obj series) ]

let validate j =
  let ( let* ) = Result.bind in
  let* window = Json.float_field "window" j in
  let* () =
    if window > 0. then Ok () else Error "series window must be positive"
  in
  let* fields = Json.obj_field "series" j in
  let* _ =
    Json.list_map
      (fun (name, s) ->
        Result.map_error (Printf.sprintf "series %S: %s" name)
          (let* kind = Json.str_field "kind" s in
           let* () =
             if kind = "counter" || kind = "gauge" then Ok ()
             else Error "bad kind"
           in
           let* _ =
             Json.list_map
               (fun f -> Json.float_field f s)
               [ "max"; "last"; "total" ]
           in
           let* n = Json.int_field "n" s in
           let* pts = Json.list_field "points" s in
           let* () =
             if List.length pts = n then Ok ()
             else
               Error
                 (Printf.sprintf "n=%d but %d points" n (List.length pts))
           in
           Json.list_map
             (function
               | Json.Arr [ a; b ]
                 when Json.to_float_opt a <> None
                      && Json.to_float_opt b <> None ->
                   Ok ()
               | _ -> Error "malformed point")
             pts))
      fields
  in
  Ok ()

(* Strict text-exposition label escaping: exactly backslash, double
   quote, and newline are escaped; everything else passes through
   verbatim (the format is UTF-8). OCaml's [%S] is close but not
   conformant — it escapes tabs and non-printables as [\t]/[\ddd],
   which Prometheus parsers reject. *)
let escape_label_value v =
  let b = Buffer.create (String.length v + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

(* Label names must match [a-zA-Z_][a-zA-Z0-9_]*; anything else is
   sanitized the same way metric names are (':' is NOT legal in label
   names, unlike metric names). *)
let sanitize_label_name n =
  let n = if n = "" then "label" else n in
  let n =
    String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
      n
  in
  match n.[0] with '0' .. '9' -> "_" ^ n | _ -> n

let to_prom t =
  let b = Buffer.create 1024 in
  let typed = Hashtbl.create 8 in
  List.iter
    (fun (name, k) ->
      let base, label = split_label name in
      let metric = "dgc_" ^ sanitize base in
      if not (Hashtbl.mem typed metric) then begin
        Hashtbl.replace typed metric ();
        Buffer.add_string b
          (Printf.sprintf "# TYPE %s %s\n" metric (kind_name k))
      end;
      let labels =
        match label with
        | Some (lk, lv) ->
            Printf.sprintf "{%s=\"%s\"}" (sanitize_label_name lk)
              (escape_label_value lv)
        | None -> ""
      in
      (* Counters expose the cumulative total, gauges the last value —
         both live in [s_total]. *)
      Buffer.add_string b
        (Printf.sprintf "%s%s %g\n" metric labels (last_value t name)))
    (names t);
  Buffer.contents b

let chrome_counters t =
  List.concat_map
    (fun (name, _) ->
      let base, label = split_label name in
      let pid =
        match label with
        | Some ("site", v) -> ( match int_of_string_opt v with
                                | Some i -> i
                                | None -> 0)
        | _ -> 0
      in
      List.map
        (fun (at, v) ->
          Json.Obj
            [
              ("name", Json.Str base);
              ("ph", Json.Str "C");
              ("ts", Json.Float (at *. 1e6));
              ("pid", Json.Int pid);
              ("tid", Json.Int 0);
              ("args", Json.Obj [ ("value", Json.Float v) ]);
            ])
        (points t name))
    (names t)
