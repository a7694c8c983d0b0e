(** Cubic Lagrange (Farrow-structure) interpolator — the "Interpolator"
    block of the Fig. 5 timing-recovery loop.  For stored samples
    x[0] (newest) … x[3], evaluates the cubic interpolant between x[2]
    and x[1] at fraction [mu], with the Farrow coefficients and Horner
    chain as individually monitored signals.  [~deriv:true] adds the
    μ-derivative chain (the ML-TED's derivative matched filter). *)

type t

val create : Sim.Env.t -> ?prefix:string -> ?deriv:bool -> unit -> t
val taps : t -> Sim.Sig_array.t
val coeffs : t -> Sim.Sig_array.t
val horner : t -> Sim.Sig_array.t
val output : t -> Sim.Signal.t

val signals : t -> Sim.Signal.t list

(** Shift one input sample in (once per input sample, before
    {!interpolate}). *)
val shift : t -> Sim.Value.t -> unit

(** Evaluate at [mu]; drives and returns [out]. *)
val interpolate : t -> Sim.Value.t -> Sim.Value.t

(** Evaluate the μ-derivative at [mu]; call after {!interpolate} (the
    [a] coefficients are shared).  [Invalid_argument] unless built with
    [~deriv:true]. *)
val differentiate : t -> Sim.Value.t -> Sim.Value.t

(** Float reference on a 4-element array (newest first). *)
val reference : float array -> float -> float

(** Float reference of the μ-derivative. *)
val derivative_reference : float array -> float -> float
