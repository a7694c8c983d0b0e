(** Signal-to-quantization-noise ratio:
    [10·log10 (Σ ref² / Σ (ref − actual)²)] — the paper's performance
    check on refined outputs (§6). *)

type t

val create : unit -> t
val reset : t -> unit

(** Accumulate one sample pair (pairs with a non-finite member are
    ignored — injected faults must not poison the energy sums). *)
val add : t -> reference:float -> actual:float -> unit

val count : t -> int
val signal_energy : t -> float

(** SQNR in dB; [+∞] with no noise, [-∞] with noise but no signal. *)
val db : t -> float

(** SQNR of two equal-length arrays ([Invalid_argument] otherwise). *)
val of_arrays : reference:float array -> actual:float array -> float

(** Theoretical SQNR of quantizing a full-scale uniform signal: signal
    power [A²/3] vs noise power [q²/12]. *)
val theoretical_uniform_db : amplitude:float -> step:float -> float

val pp : Format.formatter -> t -> unit
