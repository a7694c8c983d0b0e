(** Running (streaming) statistics — Welford's online mean/variance plus
    min/max and max-|·|, in O(1) memory per monitored signal.  This is
    what makes the paper's single-run monitoring practical (§4.2: "no
    need for huge signal databases"). *)

type t

val create : unit -> t
val reset : t -> unit
val copy : t -> t

(** Non-finite samples (NaN, ±∞) are ignored — injected faults must
    not poison the accumulators. *)
val add : t -> float -> unit

(** [add_at t a i] — {!add}[ t a.(i)], reading the sample from the
    caller's float row (nothing boxed on the way in). *)
val add_at : t -> float array -> int -> unit

val count : t -> int
val is_empty : t -> bool
val mean : t -> float

(** [+∞] when empty. *)
val min_value : t -> float

(** [-∞] when empty. *)
val max_value : t -> float

val max_abs : t -> float

(** Population variance (the quantization-noise convention). *)
val variance : t -> float

val stddev : t -> float

(** Sample variance (n−1 denominator). *)
val sample_variance : t -> float

(** Chan's parallel combination. *)
val merge : t -> t -> t

(** Observed [(min, max)]; [None] when empty. *)
val range : t -> (float * float) option

(** The accumulator's raw state as a 6-element array
    [|count; mean; m2; min; max; max_abs|] — the exact internal fields,
    so a summary can be serialized and rebuilt {e bit-identically}
    (the evaluation cache's round-trip contract). *)
val raw : t -> float array

(** Rebuild a summary from {!raw}'s output.  The fields are restored
    verbatim — [of_raw (raw t)] is indistinguishable from [t].  Raises
    [Invalid_argument] on a wrong-length array. *)
val of_raw : float array -> t

val pp : Format.formatter -> t -> unit

(** B summaries kept structure-of-arrays, for B lanes of one compiled
    run fed a row at a time.  Each lane accumulates exactly as {!add}
    would (same update code), so {!get} is bit-identical to a {!t} fed
    the lane's samples in the same order. *)
module Lanes : sig
  type summary := t
  type t

  (** [create b] — [b] empty summaries.  Raises [Invalid_argument] on
      [b < 1]. *)
  val create : int -> t

  (** [add_row t src off] — {!add} [src.(off + l)] to lane [l], for
      every lane.  Raises [Invalid_argument] when the row falls outside
      [src]. *)
  val add_row : t -> float array -> int -> unit

  (** [add_diff t x ox y oy] — {!add} [x.(ox + l) -. y.(oy + l)] to
      lane [l], for every lane. *)
  val add_diff : t -> float array -> int -> float array -> int -> unit

  (** Lane [l]'s summary, as a fresh {!t}. *)
  val get : t -> int -> summary
end
