(** Bit-true fixed-point values.

    The design environment simulates fixed-point behaviour on floats
    (quantize-on-assign, §2.2) because it is fast and — for wordlengths
    below the double-precision mantissa — exact.  This module is the
    ground truth that claim is tested against, and the value
    representation the VHDL back end reasons with: a value is an integer
    mantissa [mant] (held in [int64]) with an interpretation format, so
    [real value = mant * 2^lsb_pos fmt].

    Arithmetic here follows hardware semantics: results get the full-
    precision derived format (no information loss); [resize] performs the
    explicit rounding/overflow step. *)

type t = { mant : int64; fmt : Qformat.t }

let fmt t = t.fmt
let mant t = t.mant

let create ~mant ~fmt =
  let lo, hi = Quantize.code_bounds fmt in
  if Int64.compare mant lo < 0 || Int64.compare mant hi > 0 then
    invalid_arg
      (Printf.sprintf "Fixed.create: mantissa %Ld out of range for %s" mant
         (Qformat.to_string fmt));
  { mant; fmt }

let zero fmt = { mant = 0L; fmt }

let to_float t = Int64.to_float t.mant *. Qformat.step t.fmt

(** [of_float dt v] quantizes [v] through [dt] and returns the bit-true
    value together with the quantization outcome. *)
let of_float (dt : Dtype.t) v =
  let outcome = Quantize.quantize dt v in
  let fmt = Dtype.fmt dt in
  let mant =
    Quantize.nearest_code ~step:(Qformat.step fmt) outcome.Quantize.value
  in
  ({ mant; fmt }, outcome)

let equal a b = Qformat.equal a.fmt b.fmt && Int64.equal a.mant b.mant

(* Shift a mantissa from lsb position [from_p] to a finer position
   [to_p] (to_p <= from_p): exact left shift. *)
let align_down mant ~from_p ~to_p =
  assert (to_p <= from_p);
  Int64.shift_left mant (from_p - to_p)

let common_lsb a b = min (Qformat.lsb_pos a.fmt) (Qformat.lsb_pos b.fmt)

let result_sign a b =
  match (Qformat.sign a.fmt, Qformat.sign b.fmt) with
  | Sign_mode.Us, Sign_mode.Us -> Sign_mode.Us
  | _ -> Sign_mode.Tc

(* Full-precision format for a sum/difference: one growth bit over the
   wider operand, at the finer LSB. *)
let addsub_fmt a b =
  let lsb = common_lsb a b in
  let msb = 1 + max (Qformat.msb_pos a.fmt) (Qformat.msb_pos b.fmt) in
  (* a tc +/- us operand may need an extra bit for the sign *)
  let msb =
    match (Qformat.sign a.fmt, Qformat.sign b.fmt) with
    | Sign_mode.Tc, Sign_mode.Us | Sign_mode.Us, Sign_mode.Tc -> msb + 1
    | _ -> msb
  in
  Qformat.of_positions ~msb ~lsb (result_sign a b)

(** Exact addition in the full-precision derived format.  Raises
    [Invalid_argument] if the derived format exceeds 62 bits (the library
    keeps bit-true values within [int64]). *)
let check_width fmt op =
  if Qformat.n fmt > 62 then
    invalid_arg
      (Printf.sprintf "Fixed.%s: derived format %s exceeds 62 bits" op
         (Qformat.to_string fmt))

let add a b =
  let fmt = addsub_fmt a b in
  check_width fmt "add";
  let lsb = Qformat.lsb_pos fmt in
  let ma = align_down a.mant ~from_p:(Qformat.lsb_pos a.fmt) ~to_p:lsb in
  let mb = align_down b.mant ~from_p:(Qformat.lsb_pos b.fmt) ~to_p:lsb in
  { mant = Int64.add ma mb; fmt }

let sub a b =
  let fmt = addsub_fmt a b in
  let fmt =
    (* a difference of unsigned values can be negative *)
    match Qformat.sign fmt with
    | Sign_mode.Us ->
        Qformat.of_positions
          ~msb:(Qformat.msb_pos fmt + 1)
          ~lsb:(Qformat.lsb_pos fmt) Sign_mode.Tc
    | Sign_mode.Tc -> fmt
  in
  check_width fmt "sub";
  let lsb = Qformat.lsb_pos fmt in
  let ma = align_down a.mant ~from_p:(Qformat.lsb_pos a.fmt) ~to_p:lsb in
  let mb = align_down b.mant ~from_p:(Qformat.lsb_pos b.fmt) ~to_p:lsb in
  { mant = Int64.sub ma mb; fmt }

let neg a =
  let fmt =
    Qformat.of_positions
      ~msb:(Qformat.msb_pos a.fmt + 1)
      ~lsb:(Qformat.lsb_pos a.fmt) Sign_mode.Tc
  in
  check_width fmt "neg";
  { mant = Int64.neg a.mant; fmt }

(* Full-precision product format: widths add; LSB positions add. *)
let mul_fmt a b =
  let lsb = Qformat.lsb_pos a.fmt + Qformat.lsb_pos b.fmt in
  let n = Qformat.n a.fmt + Qformat.n b.fmt in
  Qformat.make ~n ~f:(-lsb) (result_sign a b)

let mul a b =
  let fmt = mul_fmt a b in
  check_width fmt "mul";
  { mant = Int64.mul a.mant b.mant; fmt }

(** [resize dt t] re-quantizes a bit-true value into [dt], applying the
    type's rounding and overflow modes — the hardware register-write
    step. *)
let resize (dt : Dtype.t) t =
  let v = to_float t in
  of_float dt v

let compare_value a b = Float.compare (to_float a) (to_float b)

(** Two's-complement bit pattern of the mantissa, LSB first, as booleans
    (used by the VHDL back end and bit-level tests). *)
let bits t =
  let n = Qformat.n t.fmt in
  List.init n (fun i -> Int64.logand (Int64.shift_right t.mant i) 1L = 1L)

let of_bits fmt bit_list =
  let n = Qformat.n fmt in
  if List.length bit_list <> n then
    invalid_arg "Fixed.of_bits: wrong number of bits";
  let raw =
    List.fold_left
      (fun (acc, i) b ->
        ((if b then Int64.logor acc (Int64.shift_left 1L i) else acc), i + 1))
      (0L, 0) bit_list
    |> fst
  in
  (* sign-extend for two's complement *)
  let mant =
    match Qformat.sign fmt with
    | Sign_mode.Us -> raw
    | Sign_mode.Tc ->
        if Int64.logand (Int64.shift_right raw (n - 1)) 1L = 1L then
          Int64.logor raw (Int64.shift_left (-1L) n)
        else raw
  in
  { mant; fmt }

let to_string t =
  Printf.sprintf "%g%s" (to_float t) (Qformat.to_string t.fmt)

let pp ppf t = Format.pp_print_string ppf (to_string t)
