(** Modulation error ratio / error vector magnitude —
    [MER = 10·log10 (Σ ref² / Σ (ref − rx)²)] between ideal
    constellation points and received decision-instant samples;
    [EVM_rms] is the inverse ratio as an RMS fraction. *)

type t

val create : unit -> t
val reset : t -> unit

(** Accumulate one (ideal point, received sample) pair; non-finite
    pairs are skipped. *)
val add : t -> reference:float -> actual:float -> unit

val count : t -> int

(** MER in dB; [+∞] with no error, [-∞] with error but no reference. *)
val db : t -> float

(** RMS error-vector magnitude, as a fraction of the reference RMS. *)
val evm_rms : t -> float

(** MER of two equal-length arrays ([Invalid_argument] otherwise). *)
val of_arrays : reference:float array -> actual:float array -> float

val pp : Format.formatter -> t -> unit
