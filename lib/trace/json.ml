(** Canonical JSON literal rendering shared by every exporter, and the
    one strict reader for the repo's flat JSON objects.

    One float formatting rule for the whole observability surface (and
    re-used by {!Sweep.Report}): shortest exact decimal that round-trips
    back to the same IEEE value, so two renderings of the same data are
    byte-identical — the property the determinism gates compare for.
    JSON has no non-finite numbers; they surface as quoted strings. *)

(* The C formatter that [Printf]'s [%.15g]/[%.17g] reach, called
   without the format interpreter in between: the same bytes. *)
external format_float : string -> float -> string = "caml_format_float"

let float_lit v =
  if Float.is_nan v then "\"nan\""
  else if v = Float.infinity then "\"inf\""
  else if v = Float.neg_infinity then "\"-inf\""
  else
    let s = format_float "%.15g" v in
    if float_of_string s = v then s else format_float "%.17g" v

let float_opt = function None -> "null" | Some v -> float_lit v

(* Quote, backslash and the short control escapes; [\uXXXX] for the
   remaining control bytes.  Every other byte — printable ASCII and
   bytes >= 0x80 alike — passes through unchanged. *)
let add_string_lit b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let string_lit s =
  let b = Buffer.create (String.length s + 8) in
  add_string_lit b s;
  Buffer.contents b

let bool_lit b = if b then "true" else "false"

(* --- flat objects ------------------------------------------------------- *)

type value =
  | String of string
  | Int of int
  | Float of float
  | Bool of bool
  | Null
  | Strings of string list

let value_lit = function
  | String s -> string_lit s
  | Int i -> string_of_int i
  | Float f -> float_lit f
  | Bool b -> bool_lit b
  | Null -> "null"
  | Strings l -> "[" ^ String.concat ", " (List.map string_lit l) ^ "]"

let object_lit fields =
  let b = Buffer.create 256 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (string_lit k);
      Buffer.add_string b ": ";
      Buffer.add_string b (value_lit v))
    fields;
  Buffer.add_char b '}';
  Buffer.contents b

(* A single-pass scanner over the string; [Bad] carries the byte offset
   and what was expected there. *)
exception Bad of int * string

let parse_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Bad (!pos, what)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let skip_ws () =
    while
      !pos < n && match s.[!pos] with ' ' | '\t' | '\r' | '\n' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 32 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          if !pos + 1 >= n then fail "unterminated escape";
          (match s.[!pos + 1] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' -> (
              (* a byte string, not UTF-8: only code points that are
                 their own single byte decode *)
              let hex = if !pos + 6 <= n then String.sub s (!pos + 2) 4 else "" in
              let is_hex = function
                | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
                | _ -> false
              in
              match int_of_string_opt ("0x" ^ hex) with
              | Some v when v < 0x80 && String.for_all is_hex hex ->
                  Buffer.add_char b (Char.chr v);
                  pos := !pos + 4
              | _ -> fail "unsupported \\u escape")
          | _ -> fail "unsupported escape");
          pos := !pos + 2;
          go ()
      | c when Char.code c < 0x20 -> fail "raw control byte in string"
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  (* The JSON number grammar exactly: no leading zeros, no bare dot,
     no sign other than a leading minus, no hex. *)
  let parse_number () =
    let start = !pos in
    let digits () =
      let d = !pos in
      while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
        incr pos
      done;
      if !pos = d then fail "expected a digit"
    in
    if peek () = '-' then incr pos;
    if peek () = '0' then incr pos else digits ();
    let floaty = ref false in
    if peek () = '.' then begin
      floaty := true;
      incr pos;
      digits ()
    end;
    if peek () = 'e' || peek () = 'E' then begin
      floaty := true;
      incr pos;
      if peek () = '+' || peek () = '-' then incr pos;
      digits ()
    end;
    let lit = String.sub s start (!pos - start) in
    if !floaty then
      match float_of_string_opt lit with
      | Some f when Float.is_finite f -> Float f
      | _ -> fail "number out of range"
    else
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> fail "integer out of range"
  in
  let parse_literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail "expected a value"
  in
  let parse_strings () =
    expect '[';
    skip_ws ();
    if peek () = ']' then begin
      incr pos;
      Strings []
    end
    else
      let rec elems acc =
        skip_ws ();
        let e = parse_string () in
        skip_ws ();
        match peek () with
        | ',' ->
            incr pos;
            elems (e :: acc)
        | ']' ->
            incr pos;
            Strings (List.rev (e :: acc))
        | _ -> fail "expected ',' or ']'"
      in
      elems []
  in
  let parse_value () =
    match peek () with
    | '"' -> String (parse_string ())
    | '[' -> parse_strings ()
    | 't' -> parse_literal "true" (Bool true)
    | 'f' -> parse_literal "false" (Bool false)
    | 'n' -> parse_literal "null" Null
    | '-' | '0' .. '9' -> parse_number ()
    | _ -> fail "expected a value"
  in
  skip_ws ();
  expect '{';
  skip_ws ();
  let fields =
    if peek () = '}' then begin
      incr pos;
      []
    end
    else
      let rec members acc =
        skip_ws ();
        let at = !pos in
        let k = parse_string () in
        if List.mem_assoc k acc then raise (Bad (at, "duplicate key"));
        skip_ws ();
        expect ':';
        skip_ws ();
        let acc = (k, parse_value ()) :: acc in
        skip_ws ();
        match peek () with
        | ',' ->
            incr pos;
            members acc
        | '}' ->
            incr pos;
            List.rev acc
        | _ -> fail "expected ',' or '}'"
      in
      members []
  in
  skip_ws ();
  if !pos <> n then fail "trailing bytes after the object";
  fields

let parse_object s =
  match parse_exn s with
  | fields -> Ok fields
  | exception Bad (at, what) -> Error (Printf.sprintf "byte %d: %s" at what)

(* --- field accessors ---------------------------------------------------- *)

let get_string fields k =
  match List.assoc_opt k fields with Some (String s) -> Some s | _ -> None

let get_int fields k =
  match List.assoc_opt k fields with Some (Int i) -> Some i | _ -> None

let get_float fields k =
  match List.assoc_opt k fields with
  | Some (Float f) -> Some f
  | Some (Int i) -> Some (float_of_int i)
  | _ -> None
