(** Quantization of ideal (float) values through a {!Dtype.t} — the cast
    the design environment performs on every signal assignment (§2.2):
    LSB rounding first, then MSB overflow handling.

    Performed on an exact [int64] integer grid whenever the scaled value
    fits; astronomically large values (range-propagation explosions)
    take a float fallback with the same wrap/saturate behaviour.

    Because this cast runs once per signal assignment it is the hottest
    operation of the simulation engine: all per-type constants are
    precomputed into a {!compiled} record ({!compile} / the memoizing
    {!of_dtype}) and {!exec} performs the cast with no repeated
    [2.0 ** lsb] evaluation or bound derivation. *)

type overflow_event = {
  raw : float;  (** value after rounding, before overflow handling *)
  direction : [ `Above | `Below ];
}

type outcome = {
  value : float;  (** the representable result *)
  rounding_error : float;  (** [value_after_rounding - input] *)
  overflow : overflow_event option;
}

(** Integer code range [(lo, hi)] of a format.  Two's-complement formats
    are exact up to n = 64 (int64 wraparound lands the full-width bounds
    on [Int64.min_int]/[max_int]); unsigned formats are limited to
    n <= 63 — an unsigned 64-bit code does not fit an [int64]. *)
val code_bounds : Qformat.t -> int64 * int64

(** [nearest_code ~step v] — the integer code nearest [v / step], ties
    away from zero: the mantissa of a value on the grid of step [step]
    (a cast's result, a constant to emit).  Saturates like
    [Int64.of_float] far outside the int64 range. *)
val nearest_code : step:float -> float -> int64

(** Two's-complement / modular wraparound of an out-of-range code into
    the format's code window (sign-extension of the low [n] bits for tc,
    masking for unsigned) — valid for the full-width n = 63 and n = 64
    tc cases.  n = 64 unsigned passes through unchanged (documented
    limitation; the float fallback covers those magnitudes). *)
val wrap_code : Qformat.t -> int64 -> int64

(** The compiled quantizer: every per-type constant of the cast,
    computed once and reused per assignment. *)
type compiled = private {
  cdt : Dtype.t;
  step : float;  (** [2 ^ lsb_pos] *)
  lo : int64;  (** smallest integer code *)
  hi : int64;  (** largest integer code *)
  flo : float;  (** [Int64.to_float lo] (float-fallback bound) *)
  fhi : float;
  min_v : float;  (** representable range, [Dtype.range] *)
  max_v : float;
  round_nearest : bool;  (** Round vs Floor *)
  overflow : Overflow_mode.t;
  saturating : bool;
  error_mode : bool;  (** overflow mode is [Error] *)
  int64_path : bool;  (** wordlength fits the exact int64 grid (n <= 62) *)
  inv_step : float;
      (** [1 / step] when that is an exact normal float and [int64_path];
          NaN otherwise (no cast takes the short path) *)
  lo_code : int;  (** [lo] as an [int] (meaningful when [int64_path]) *)
  hi_code : int;
  bounds : float array;
      (** [[| min_v; max_v |]], the representable range as a two-float
          row for row-fed interval clamps; never written *)
}

(** Build a compiled quantizer (no memoization). *)
val compile : Dtype.t -> compiled

(** Memoized {!compile} — one-shot callers share the precomputation. *)
val of_dtype : Dtype.t -> compiled

(** The dtype a compiled quantizer was built from. *)
val dtype_of : compiled -> Dtype.t

(** Scratch cell for {!exec_into}: all-float (flat representation) so
    the hot path stores results without boxing.  [flag] is 0 for no
    overflow, positive for [`Above], negative for [`Below]; [raw] (the
    pre-overflow value) and [rerr] (the rounding error) are meaningful
    right after an [exec_into] call. *)
type scratch = {
  mutable flag : float;
  mutable raw : float;
  mutable rerr : float;
}

(** Fresh reusable scratch cell for {!exec_into}, {!exec_at} and
    {!exec_lanes}. *)
val create_scratch : unit -> scratch

(** Allocation-free per-assignment cast: returns the representable
    value, reports overflow/rounding through the scratch.  Same contract
    as {!exec} otherwise. *)
val exec_into : compiled -> float -> scratch -> float

(** [exec_at c a i s] — {!exec_into} of [a.(i)], stored back into
    [a.(i)]; no float crosses the call boxed.  A scratch belongs to one
    caller at a time: the simulator keeps one per environment. *)
val exec_at : compiled -> float array -> int -> scratch -> unit

(** [exec_lanes qs a ~src ~dst ~ovf s] — {!exec_into} over a row of
    lanes: for each [l] in [0, Array.length qs), casts [a.(src + l)]
    through [qs.(l)] into [a.(dst + l)] and counts an overflow event in
    [ovf.(l)]; returns the row's event count.  One call per row, no
    allocation on in-range casts.  Raises [Invalid_argument] when a row
    falls outside [a] or [ovf] is shorter than [qs]. *)
val exec_lanes :
  compiled array ->
  float array ->
  src:int ->
  dst:int ->
  ovf:int array ->
  scratch ->
  int

(** The per-assignment cast.  NaN raises [Invalid_argument]; infinities
    saturate/wrap and report an overflow event. *)
val exec : compiled -> float -> outcome

(** [quantize dtype v] — one-shot cast: [exec (of_dtype dtype) v]. *)
val quantize : Dtype.t -> float -> outcome

(** Just the representable value (the paper's explicit [cast]). *)
val cast : Dtype.t -> float -> float

(** Total quantization error [cast dt v -. v]. *)
val error : Dtype.t -> float -> float

(** Uniform-model error parameters [(step, mean_bias, variance)]:
    step [q], bias of the rounding mode, variance [q²/12].  Used by the
    analytical noise propagation. *)
val noise_model : Dtype.t -> float * float * float
