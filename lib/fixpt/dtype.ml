(** Fixed-point data types — the paper's
    [dtype(name, n, f, vtype, msbspec, lsbspec)] object (§2.1).

    A dtype bundles a {!Qformat.t} with the MSB overflow mode and the LSB
    rounding mode, under a name used in reports.  Declaring a signal with
    a dtype automatically seeds the quasi-analytical range propagation
    with the type's representable range (§4.1). *)

type t = {
  name : string;
  fmt : Qformat.t;
  overflow : Overflow_mode.t;
  round : Round_mode.t;
}

(** [make name ~n ~f ?sign ?overflow ?round ()] — defaults are the
    paper's common case: two's complement, saturating MSB check disabled
    (wrap-around), round-off LSB. *)
let make name ~n ~f ?(sign = Sign_mode.Tc) ?(overflow = Overflow_mode.Wrap)
    ?(round = Round_mode.Round) () =
  { name; fmt = Qformat.make ~n ~f sign; overflow; round }

(** [of_format name fmt] with wrap/round defaults. *)
let of_format ?(overflow = Overflow_mode.Wrap) ?(round = Round_mode.Round)
    name fmt =
  { name; fmt; overflow; round }

let name t = t.name
let fmt t = t.fmt
let overflow t = t.overflow
let round t = t.round
let n t = Qformat.n t.fmt
let f t = Qformat.f t.fmt
let sign t = Qformat.sign t.fmt
let msb_pos t = Qformat.msb_pos t.fmt
let lsb_pos t = Qformat.lsb_pos t.fmt
let step t = Qformat.step t.fmt
let min_value t = Qformat.min_value t.fmt
let max_value t = Qformat.max_value t.fmt

(** Representable range, used to seed range propagation. *)
let range t = (min_value t, max_value t)

let with_overflow t overflow = { t with overflow }

(** [with_msb t m] moves the MSB position, keeping LSB and modes. *)
let with_msb t m =
  let lsb = lsb_pos t in
  { t with fmt = Qformat.of_positions ~msb:(max m lsb) ~lsb (sign t) }

(** [with_lsb t p] moves the LSB position, keeping MSB and modes. *)
let with_lsb t p =
  let msb = msb_pos t in
  { t with fmt = Qformat.of_positions ~msb:(max msb p) ~lsb:p (sign t) }

let equal a b =
  String.equal a.name b.name
  && Qformat.equal a.fmt b.fmt
  && Overflow_mode.equal a.overflow b.overflow
  && Round_mode.equal a.round b.round

(** Same representation and behaviour, ignoring the name. *)
let same_behaviour a b =
  Qformat.equal a.fmt b.fmt
  && Overflow_mode.equal a.overflow b.overflow
  && Round_mode.equal a.round b.round

(* Built without Printf: every cache key renders each of a candidate's
   types. *)
let to_string t =
  String.concat ""
    [
      t.name; "<"; string_of_int (n t); ","; string_of_int (f t); ",";
      Sign_mode.to_string (sign t); ","; Overflow_mode.to_string t.overflow;
      ","; Round_mode.to_string t.round; ">";
    ]

let pp ppf t = Format.pp_print_string ppf (to_string t)

(** Parse ["name<n,f[,sign[,msbspec[,lsbspec]]]>"] (name optional,
    omitted fields default as in {!make}): inverse of {!to_string}.
    [None] on any malformed input. *)
let of_string s =
  let open_b = String.index_opt s '<' in
  match open_b with
  | None -> None
  | Some i when String.length s = 0 || s.[String.length s - 1] <> '>' ->
      ignore i; None
  | Some i ->
      let name = String.sub s 0 i in
      let inner = String.sub s (i + 1) (String.length s - i - 2) in
      let fields = String.split_on_char ',' inner |> List.map String.trim in
      let int_of x = int_of_string_opt x in
      (match fields with
      | n_s :: f_s :: rest -> (
          match (int_of n_s, int_of f_s) with
          | Some n, Some f when n >= 1 -> (
              let sign, rest =
                match rest with
                | x :: tl when Sign_mode.of_string x <> None ->
                    (Option.get (Sign_mode.of_string x), tl)
                | _ -> (Sign_mode.Tc, rest)
              in
              let overflow, rest =
                match rest with
                | x :: tl when Overflow_mode.of_string x <> None ->
                    (Option.get (Overflow_mode.of_string x), tl)
                | _ -> (Overflow_mode.Wrap, rest)
              in
              let round, rest =
                match rest with
                | x :: tl when Round_mode.of_string x <> None ->
                    (Option.get (Round_mode.of_string x), tl)
                | _ -> (Round_mode.Round, rest)
              in
              match rest with
              | [] ->
                  Some
                    (make
                       (if name = "" then "t" else name)
                       ~n ~f ~sign ~overflow ~round ())
              | _ -> None)
          | _ -> None)
      | _ -> None)
