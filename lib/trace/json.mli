(** Canonical JSON literal rendering shared by every exporter (and by
    {!Sweep.Report}): one byte-stable formatting rule so determinism
    gates can compare rendered output as strings — and the one strict
    reader for the repo's flat JSON objects (daemon protocol lines,
    fault plans). *)

(** Shortest exact decimal that round-trips ([%.15g], falling back to
    [%.17g]); nan/±inf render as the quoted strings ["nan"], ["inf"],
    ["-inf"]. *)
val float_lit : float -> string

(** [float_lit], with [None] as [null]. *)
val float_opt : float option -> string

(** Quoted JSON string literal: quote, backslash, newline, carriage
    return, tab, backspace and form feed get their short escapes, other
    control bytes [\u00XX]; every other byte passes through unchanged
    (bytes >= 0x80 included — strings are byte strings). *)
val string_lit : string -> string

(** [string_lit], appended to a buffer. *)
val add_string_lit : Buffer.t -> string -> unit

(** [true]/[false]. *)
val bool_lit : bool -> string

(** {2 Flat objects}

    One JSON object whose values are strings, integers, floats,
    booleans, [null] or arrays of strings — no nesting. *)

type value =
  | String of string
  | Int of int  (** a number with no fraction or exponent *)
  | Float of float
  | Bool of bool
  | Null
  | Strings of string list

(** Render an ordered field list on one line as
    [{"k": v, "k2": v2}]. *)
val object_lit : (string * value) list -> string

(** Strictly parse one flat object back into its ordered field list.
    [Error] (with the byte offset and what was expected) on anything
    outside the grammar: trailing bytes, trailing or missing commas,
    duplicate keys, numbers JSON does not allow ([01], [1.], [+1],
    [0x10]) or out of range, raw control bytes in strings, escapes
    other than JSON's and [\u] beyond [\u007f], nested values. *)
val parse_object : string -> ((string * value) list, string) result

(** Typed field accessors; [None] when absent or differently typed
    ({!get_float} also accepts an [Int]). *)

val get_string : (string * value) list -> string -> string option
val get_int : (string * value) list -> string -> int option
val get_float : (string * value) list -> string -> float option
