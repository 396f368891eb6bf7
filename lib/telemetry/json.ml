type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- printing --------------------------------------------------------- *)

let escape b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let float_repr x =
  if not (Float.is_finite x) then "null"
  else
    let s = Printf.sprintf "%.12g" x in
    (* "%.12g" never emits a trailing '.', but be safe for "1." forms. *)
    if String.contains s '.' || String.contains s 'e' || String.contains s 'n'
    then s
    else s ^ ".0"

let rec emit b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float x -> Buffer.add_string b (float_repr x)
  | Str s -> escape b s
  | Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          emit b v)
        l;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          escape b k;
          Buffer.add_char b ':';
          emit b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  emit b v;
  Buffer.contents b

let pp ppf v = Format.pp_print_string ppf (to_string v)

(* --- parsing ---------------------------------------------------------- *)

exception Bad of string

type cursor = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let fail c msg = raise (Bad (Printf.sprintf "%s at offset %d" msg c.pos))

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c (Printf.sprintf "expected %c" ch)

let literal c word v =
  let n = String.length word in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = word then begin
    c.pos <- c.pos + n;
    v
  end
  else fail c ("expected " ^ word)

let parse_string_raw c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | Some '"' -> advance c; Buffer.add_char b '"'; go ()
        | Some '\\' -> advance c; Buffer.add_char b '\\'; go ()
        | Some '/' -> advance c; Buffer.add_char b '/'; go ()
        | Some 'n' -> advance c; Buffer.add_char b '\n'; go ()
        | Some 'r' -> advance c; Buffer.add_char b '\r'; go ()
        | Some 't' -> advance c; Buffer.add_char b '\t'; go ()
        | Some 'b' -> advance c; Buffer.add_char b '\b'; go ()
        | Some 'f' -> advance c; Buffer.add_char b '\012'; go ()
        | Some 'u' ->
            advance c;
            if c.pos + 4 > String.length c.s then fail c "bad \\u escape";
            let hex = String.sub c.s c.pos 4 in
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> fail c "bad \\u escape"
            in
            c.pos <- c.pos + 4;
            (* ASCII only; anything else round-trips as '?'. *)
            Buffer.add_char b
              (if code < 0x80 then Char.chr code else '?');
            go ()
        | _ -> fail c "bad escape")
    | Some ch ->
        advance c;
        Buffer.add_char b ch;
        go ()
  in
  go ();
  Buffer.contents b

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec go () =
    match peek c with
    | Some ch when is_num_char ch ->
        advance c;
        go ()
    | _ -> ()
  in
  go ();
  let text = String.sub c.s start (c.pos - start) in
  if String.contains text '.' || String.contains text 'e'
     || String.contains text 'E'
  then
    match float_of_string_opt text with
    | Some x -> Float x
    | None -> fail c "bad number"
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt text with
        | Some x -> Float x
        | None -> fail c "bad number")

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws c;
          let k = parse_string_raw c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              fields ((k, v) :: acc)
          | Some '}' ->
              advance c;
              List.rev ((k, v) :: acc)
          | _ -> fail c "expected ',' or '}'"
        in
        Obj (fields [])
      end
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        Arr []
      end
      else begin
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              items (v :: acc)
          | Some ']' ->
              advance c;
              List.rev (v :: acc)
          | _ -> fail c "expected ',' or ']'"
        in
        Arr (items [])
      end
  | Some '"' -> Str (parse_string_raw c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c (Printf.sprintf "unexpected %c" ch)

let parse s =
  let c = { s; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos = String.length s then Ok v
      else Error (Printf.sprintf "trailing input at offset %d" c.pos)
  | exception Bad msg -> Error msg

(* --- accessors -------------------------------------------------------- *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
let to_int_opt = function Int i -> Some i | _ -> None

let to_float_opt = function
  | Float x -> Some x
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_str_opt = function Str s -> Some s | _ -> None
let to_list_opt = function Arr l -> Some l | _ -> None
let to_obj_opt = function Obj fields -> Some fields | _ -> None

(* --- decoding ---------------------------------------------------------- *)

let ( let* ) = Result.bind

let field k j =
  match member k j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" k)

let typed what conv k j =
  let* v = field k j in
  match conv v with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "field %S: expected %s" k what)

let int_field = typed "an integer" to_int_opt
let float_field = typed "a number" to_float_opt
let str_field = typed "a string" to_str_opt
let list_field = typed "an array" to_list_opt
let obj_field = typed "an object" to_obj_opt

let opt_field typed_field k j =
  match member k j with
  | None | Some Null -> Ok None
  | Some _ -> Result.map Option.some (typed_field k j)

let list_map f l =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: tl -> (
        match f x with Ok y -> go (y :: acc) tl | Error _ as e -> e)
  in
  go [] l

let schema j = Option.bind (member "schema" j) to_str_opt

let expect_schema want j =
  let* s = str_field "schema" j in
  if String.equal s want then Ok ()
  else Error (Printf.sprintf "schema %S, expected %S" s want)

(* --- files ------------------------------------------------------------- *)

let write_file ~path j =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (to_string j);
      Out_channel.output_char oc '\n')

let read_file ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> parse text
  | exception Sys_error e -> Error e
