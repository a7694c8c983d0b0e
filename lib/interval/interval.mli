(** Closed-interval arithmetic over floats — the numeric substrate of
    both range-propagation techniques in the paper (§4.1): the
    quasi-analytical method (ranges flowing through the overloaded
    operators during simulation) and the analytical method (the same
    propagation on a signal-flow graph).

    Infinite endpoints are allowed — they are what "MSB explosion" on a
    feedback loop looks like ({!is_exploded} detects it).  The empty
    interval represents "nothing observed yet".

    Hot paths keep intervals flat, as two floats of a row ({!Row}): the
    endpoint rules of every operation live there once, and the boxed
    functions here run the same kernels. *)

(** Private: every [Range] comes from {!make} or an operation, so
    [lo > hi] only ever holds with a NaN endpoint. *)
type t = private Empty | Range of { lo : float; hi : float }

val empty : t

(** Raises [Invalid_argument] on NaN or [lo > hi]. *)
val make : float -> float -> t

val of_point : float -> t

(** [[-∞, +∞]]. *)
val entire : t

val is_empty : t -> bool

(** Raise [Invalid_argument] on {!empty}. *)
val lo : t -> float

val hi : t -> float
val bounds : t -> (float * float) option
val equal : t -> t -> bool
val mem : float -> t -> bool
val subset : t -> t -> bool
val width : t -> float

(** Largest absolute value contained. *)
val mag : t -> float

(** Union hull — how monitors accumulate ranges over assignments. *)
val join : t -> t -> t

val meet : t -> t -> t
val add : t -> t -> t
val neg : t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** Sound division; a divisor straddling zero yields {!entire}. *)
val div : t -> t -> t

val abs : t -> t
val min_ : t -> t -> t
val max_ : t -> t -> t

(** Multiplication by a scalar. *)
val scale : float -> t -> t

(** Multiply by [2^k] ([k] may be negative). *)
val shift_left : t -> int -> t

(** Clamp into [into] — the effect of saturation on a propagated range;
    what breaks feedback explosions (§4.1). *)
val clamp : into:t -> t -> t

(** Widening: a side that escapes jumps to infinity.  Forces termination
    of the analytical fixpoint on feedback loops. *)
val widen : t -> t -> t

(** Capped widening: an escaping side lands on the corresponding bound
    of [within] (never tighter than the current bound) instead of
    infinity — the degraded "range exploded, capped to declared bound"
    fallback of {!Sfg.Range_analysis}.  Falls back to {!widen} when
    [within] is {!empty}. *)
val widen_within : within:t -> t -> t -> t

(** Infinite endpoint or wider than [threshold] (default [2^64]):
    counts as an MSB explosion. *)
val is_exploded : ?threshold:float -> t -> bool

(** Grow by one observed value (statistic monitoring; NaN ignored). *)
val observe : t -> float -> t

(** Endpoint kernels on flat intervals.  An interval at offset [i] of a
    float array [a] is [lo = a.(i)], [hi = a.(i + 1)]; [lo > hi] encodes
    {!empty} (canonically [+∞, −∞]).  Each kernel reads its operands at
    [(a, ia)] (and [(b, ib)]) and writes the result at [(d, id)], which
    may be an operand's slots: every operand is read before the result
    is written.  The results are bit for bit those of the boxed
    functions of the same name, which run these kernels.  An offset
    outside its array raises [Invalid_argument]. *)
module Row : sig
  (** Write {!empty}'s encoding at [(d, i)]. *)
  val set_empty : float array -> int -> unit

  val is_empty : float array -> int -> bool

  (** Write a boxed interval at [(d, i)]. *)
  val put : float array -> int -> t -> unit

  (** Read the interval at [(a, i)] as a boxed one. *)
  val get : float array -> int -> t

  val add : float array -> int -> float array -> int -> float array -> int -> unit
  val sub : float array -> int -> float array -> int -> float array -> int -> unit
  val mul : float array -> int -> float array -> int -> float array -> int -> unit
  val div : float array -> int -> float array -> int -> float array -> int -> unit
  val min_ : float array -> int -> float array -> int -> float array -> int -> unit
  val max_ : float array -> int -> float array -> int -> float array -> int -> unit
  val join : float array -> int -> float array -> int -> float array -> int -> unit
  val neg : float array -> int -> float array -> int -> unit
  val abs : float array -> int -> float array -> int -> unit

  (** [shift_left a ia k d id] — multiply by [2^k]. *)
  val shift_left : float array -> int -> int -> float array -> int -> unit

  (** [clamp l il a ia d id] — {!clamp}[ ~into:l a]. *)
  val clamp : float array -> int -> float array -> int -> float array -> int -> unit

  (** [observe a ia x ix d id] — {!observe} the value [x.(ix)]. *)
  val observe : float array -> int -> float array -> int -> float array -> int -> unit
end

val to_string : t -> string
val pp : Format.formatter -> t -> unit
