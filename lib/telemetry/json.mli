(** A minimal JSON tree, printer and parser, and the one envelope every
    [dgc.*] artifact goes through.

    Enough JSON for the artifacts without an external dependency:
    compact deterministic printing (object fields in construction
    order), and a strict recursive-descent parser for round-trips and
    shape checks. Non-finite floats print as [null].

    {b The envelope.} A tagged artifact is an object whose ["schema"]
    field names its format and version (["dgc.run/1"],
    ["dgc.plan/1"], ...). It reaches disk through {!write_file} (the
    compact text plus one newline) and comes back through
    {!read_file}; the module that owns the tag turns the tree into a
    value or a verdict with a decoder written on the accessors below.
    Sections that travel inside another document (a run's ["series"],
    a profile's ["ledger"]) carry no tag of their own unless their
    format is also written standalone. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (no insignificant whitespace). *)

val pp : Format.formatter -> t -> unit
(** Same output as {!to_string}. *)

val parse : string -> (t, string) result
(** Strict: exactly one JSON value plus trailing whitespace. Numbers
    with a fraction or exponent parse as [Float], others as [Int]. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] elsewhere. *)

val to_int_opt : t -> int option
val to_float_opt : t -> float option
(** Accepts [Int] and [Float]. *)

val to_str_opt : t -> string option
val to_list_opt : t -> t list option
val to_obj_opt : t -> (string * t) list option

(** {1 Decoding}

    Result-returning accessors: a decoder is a chain of [let*] over
    these, so the first missing or mistyped field is its error. Each
    accessor has one error text: [missing field "k"] when [k] is
    absent (or the value is not an object), [field "k": expected an
    integer] (a number, a string, an array, an object) when it has
    another type. Decoders add their own context (["event 3: ..."]) and
    domain checks (ranges, order) on top. *)

val field : string -> t -> (t, string) result
(** The field's value, whatever its type. *)

val int_field : string -> t -> (int, string) result
(** [Int] only: a [Float] is not an integer. *)

val float_field : string -> t -> (float, string) result
(** [Float] or [Int], like {!to_float_opt}. *)

val str_field : string -> t -> (string, string) result
val list_field : string -> t -> (t list, string) result
val obj_field : string -> t -> ((string * t) list, string) result

val opt_field :
  (string -> t -> ('a, string) result) ->
  string ->
  t ->
  ('a option, string) result
(** [opt_field int_field k j]: an optional field, for fields a decoder
    defaults. [Ok None] when absent or [null]; the typed accessor's
    error when present with another type, so a mistyped field is
    refused rather than read as its default. *)

val list_map :
  ('a -> ('b, string) result) -> 'a list -> ('b list, string) result
(** Decode every element in order; the first error wins. *)

val schema : t -> string option
(** The envelope's ["schema"] tag, when it is a string. *)

val expect_schema : string -> t -> (unit, string) result
(** [Ok ()] when the tag is exactly the given one; otherwise
    [schema "got", expected "want"] (or the {!str_field} error when
    the tag is missing). *)

(** {1 Files} *)

val write_file : path:string -> t -> unit
(** {!to_string} and one ['\n']: every JSON document the tree writes
    goes to disk through here. *)

val read_file : path:string -> (t, string) result
(** {!parse} of the whole file; an I/O error is an [Error] too. *)
