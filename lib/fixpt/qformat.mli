(** Positional bookkeeping for fixed-point formats.

    A format is [n] total bits of which [f] are fractional, with a
    signedness.  Following the paper (§2.1), bit positions are absolute
    weights with respect to the binary point: the LSB position is [-f]
    (step [2^(-f)]) and the MSB position is [n - f - 1] (the sign-bit
    weight for two's complement).  All position/width conversions in the
    library go through this module. *)

type t

(** Structural equality. *)
val equal : t -> t -> bool

(** [make ~n ~f sign] — [n] total bits ([>= 1], or
    [Invalid_argument]), [f] fractional bits (any integer: negative [f]
    scales upward, [f > n] gives a pure fraction). *)
val make : n:int -> f:int -> Sign_mode.t -> t

(** Total bits. *)
val n : t -> int

(** Fractional bits. *)
val f : t -> int

(** Two's complement or unsigned. *)
val sign : t -> Sign_mode.t

(** LSB weight [-f]. *)
val lsb_pos : t -> int

(** MSB weight [n - f - 1]. *)
val msb_pos : t -> int

(** The format spanning bit weights [msb] down to [lsb] inclusive.
    Raises [Invalid_argument] if [msb < lsb]. *)
val of_positions : msb:int -> lsb:int -> Sign_mode.t -> t

(** Quantization step [2^lsb_pos]. *)
val step : t -> float

(** Largest representable value ([2^msb - step] for tc). *)
val max_value : t -> float

(** Smallest representable value ([-2^msb] for tc, [0] for us). *)
val min_value : t -> float

(** Number of representable codes, [2^n], as a float. *)
val cardinal : t -> float

(** Is the float exactly representable (in range, on the grid)? *)
val contains : t -> float -> bool

(** [v] lies exactly on the format's grid and inside its range. *)
val is_exact : t -> float -> bool

(** The paper's [F(vmin, vmax)] (§5.1): minimum MSB position whose range
    covers [[vmin, vmax]] — [-2^m <= v < 2^m] for tc, [0 <= v < 2^(m+1)]
    for us.  Computed exactly (no float logarithms).  [None] for
    infinite bounds; [Invalid_argument] on NaN, an empty range, or a
    negative bound with an unsigned sign. *)
val required_msb : Sign_mode.t -> vmin:float -> vmax:float -> int option

(** Grow the integer part (keeping the LSB position) until the range
    fits; [None] if the range is unbounded. *)
val widen_for_range : t -> vmin:float -> vmax:float -> t option

(** ["<n,f,sign>"], e.g. ["<7,5,tc>"]. *)
val to_string : t -> string

(** Prints [<n,f,sign>]. *)
val pp : Format.formatter -> t -> unit
