(** Consumed/produced difference-error statistics for one signal.

    The paper's error monitoring (§4.2, Fig. 3) runs fixed-point and
    floating-point computations side by side and, at every assignment to
    a signal, records two errors:

    - the {e consumed} error ε_c: difference between the float reference
      and the fixed operand value arriving at the assignment (the error
      the expression inherited from its inputs);
    - the {e produced} error ε_p: difference after the destination type's
      quantization was applied (what downstream consumers will see).

    For each, the mean μ, standard deviation σ and maximum absolute error
    m̂ are kept.  The LSB refinement rules (§5.2) read σ(ε_p) to place the
    LSB, and compare consumed vs produced precision to flag precision
    loss ([p_p > p_c] is expected at a quantizer; [p_p < p_c] on an
    [error()]-overruled feedback signal flags loop instability). *)

type t = { consumed : Running.t; produced : Running.t }

let create () = { consumed = Running.create (); produced = Running.create () }

let reset t =
  Running.reset t.consumed;
  Running.reset t.produced

(** [record t ~consumed ~produced] logs one assignment's errors. *)
let record t ~consumed ~produced =
  Running.add t.consumed consumed;
  Running.add t.produced produced

let record_at t (a : float array) i =
  Running.add_at t.consumed a i;
  Running.add_at t.produced a (i + 1)

let consumed t = t.consumed
let produced t = t.produced
let count t = Running.count t.produced

let copy t =
  { consumed = Running.copy t.consumed; produced = Running.copy t.produced }

let raw t = Array.append (Running.raw t.consumed) (Running.raw t.produced)

let of_raw a =
  if Array.length a <> 12 then
    invalid_arg "Stats.Err_stats.of_raw: expected 12 fields";
  {
    consumed = Running.of_raw (Array.sub a 0 6);
    produced = Running.of_raw (Array.sub a 6 6);
  }

(** Combine the summaries of two disjoint sample streams (both sides via
    {!Running.merge}, so the result is what a single accumulator over the
    concatenated streams would hold, up to float rounding).  Commutative
    and associative up to rounding — per-worker error monitors of a
    parallel sweep merge into one deterministic report when folded in a
    fixed order. *)
let merge a b =
  {
    consumed = Running.merge a.consumed b.consumed;
    produced = Running.merge a.produced b.produced;
  }

(** Precision of an error population, expressed as the LSB position [p]
    such that the step [2^p] matches [k * sigma]; [None] when the error
    is identically zero (floating-point signal: infinite precision).

    Edge cases (the §5.2 σ-rule contract):

    - [k <= 0], [k] nan or infinite → [Invalid_argument].  Before this
      guard, [log2] of a non-positive product returned nan, which
      [Float.to_int] silently truncated to 0 — a plausible-looking LSB;
    - σ = 0 with [max_abs > 0] — a {e constant} non-zero error (every
      sample identical, e.g. a pure DC offset from a floor quantizer on
      a constant signal).  The magnitude itself stands in for σ so the
      constant error is still representable at the returned step;
    - the result is clamped to the float exponent range before
      truncation, so denormal-small or overflowing [k·s] products yield
      the extreme finite positions instead of truncating ±infinity. *)
let precision_of ?(k = 1.0) run =
  if not (Float.is_finite k) || k <= 0.0 then
    invalid_arg "Err_stats.precision_of: k must be positive and finite";
  let sigma = Running.stddev run in
  let m = Running.max_abs run in
  if sigma = 0.0 && m = 0.0 then None
  else
    let s = if sigma > 0.0 then sigma else m in
    let p = Float.floor (Float.log2 (k *. s)) in
    (* 2^-1074 (smallest denormal) .. 2^1023 (largest exponent) *)
    Some (Float.to_int (Float.max (-1074.0) (Float.min 1023.0 p)))

let produced_precision ?k t = precision_of ?k t.produced

(** Verdict of the consumed-vs-produced comparison (§5.2). *)
type loss =
  | No_loss  (** ε_p ≈ ε_c: the assignment adds no quantization noise *)
  | Quantization_loss  (** ε_p > ε_c: precision intentionally dropped here *)
  | Feedback_gain  (** ε_p < ε_c: error shrank — on an [error()]-overruled
                       loop this means the injected model under-estimates
                       the real loop error (instability risk) *)

(* σ ratio beyond which one side counts as larger *)
let tolerance = 1.25

let loss_verdict t =
  let sc = Running.stddev t.consumed and sp = Running.stddev t.produced in
  if sp > sc *. tolerance then Quantization_loss
  else if sc > sp *. tolerance then Feedback_gain
  else No_loss

let loss_to_string = function
  | No_loss -> "none"
  | Quantization_loss -> "quantization"
  | Feedback_gain -> "feedback-gain"

let pp ppf t =
  Format.fprintf ppf "consumed: %a@ produced: %a" Running.pp t.consumed
    Running.pp t.produced

module Lanes = struct
  type pair = t
  type t = { consumed : Running.Lanes.t; produced : Running.Lanes.t }

  let create b =
    { consumed = Running.Lanes.create b; produced = Running.Lanes.create b }

  let consumed t = t.consumed
  let produced t = t.produced

  let get t l : pair =
    {
      consumed = Running.Lanes.get t.consumed l;
      produced = Running.Lanes.get t.produced l;
    }
end
