(** Consumed/produced difference-error statistics for one signal
    (§4.2, Fig. 3): at every assignment, the error the expression
    inherited from its operands (ε_c) and the error after the
    destination's quantization (ε_p).  The LSB rules read σ(ε_p); the
    consumed-vs-produced comparison flags precision loss. *)

type t

val create : unit -> t
val reset : t -> unit

(** Log one assignment's errors. *)
val record : t -> consumed:float -> produced:float -> unit

(** [record_at t a i] — {!record} with [~consumed:a.(i)] and
    [~produced:a.(i + 1)], read from the caller's float row. *)
val record_at : t -> float array -> int -> unit

(** The consumed-error (ε_c) population. *)
val consumed : t -> Running.t

(** The produced-error (ε_p) population. *)
val produced : t -> Running.t

(** Number of recorded assignments. *)
val count : t -> int

(** Independent duplicate of the current summaries. *)
val copy : t -> t

(** Raw state as a 12-element array — the consumed population's
    {!Running.raw} followed by the produced one's; the exact internal
    fields, so the pair serializes and rebuilds bit-identically. *)
val raw : t -> float array

(** Rebuild from {!raw}'s output, verbatim.  Raises [Invalid_argument]
    on a wrong-length array. *)
val of_raw : float array -> t

(** Combine the summaries of two disjoint sample streams; equals a
    single accumulator over the concatenation up to float rounding.
    Commutative/associative up to rounding — how per-worker monitors of
    a parallel sweep combine deterministically. *)
val merge : t -> t -> t

(** LSB position matching [k·σ] of an error population; [None] when the
    error is identically zero (infinite precision).  When σ = 0 but
    [max_abs > 0] (constant error), the magnitude stands in for σ.  The
    position is clamped to the float exponent range [[-1074, 1023]].

    @raise Invalid_argument when [k] is non-positive, nan or infinite. *)
val precision_of : ?k:float -> Running.t -> int option

val produced_precision : ?k:float -> t -> int option

(** Verdict of the §5.2 consumed-vs-produced comparison. *)
type loss =
  | No_loss
  | Quantization_loss  (** ε_p > ε_c: precision dropped here *)
  | Feedback_gain
      (** ε_p < ε_c — on an [error()]-overruled loop this means the
          injected model under-estimates the real loop error *)

(** [Quantization_loss] when σ(ε_p) exceeds 1.25·σ(ε_c),
    [Feedback_gain] when σ(ε_c) exceeds 1.25·σ(ε_p), else [No_loss]. *)
val loss_verdict : t -> loss
val loss_to_string : loss -> string
val pp : Format.formatter -> t -> unit

(** B consumed/produced pairs kept structure-of-arrays ({!Running.Lanes}
    on each side), for the lanes of one compiled run. *)
module Lanes : sig
  type pair := t
  type t

  val create : int -> t

  (** The ε_c side: feed it with {!Running.Lanes.add_diff}. *)
  val consumed : t -> Running.Lanes.t

  (** The ε_p side. *)
  val produced : t -> Running.Lanes.t

  (** Lane [l]'s pair, as a fresh {!t}; equal field for field to an
      {!Err_stats.t} that recorded the lane's errors in the same order. *)
  val get : t -> int -> pair
end
