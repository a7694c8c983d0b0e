(** Analytical quantization-noise propagation — the static counterpart
    of error monitoring and the engine of the interpolative-style
    baseline (paper reference [3]).  [Quantize] nodes add uniform-
    model noise; moments propagate under independence assumptions with
    range-based magnitude bounds at multiplications; loops iterate to a
    fixpoint (noise gain ≥ 1 diverges and is reported — the analytical
    mirror of §4.2's divergence). *)

type moments = {
  mean : float;
      (** signed first-order estimate of E[ε] — floor-mode biases carry
          their sign so opposing biases cancel through [Sub]/[Neg];
          multiplications estimate the unknown signal expectation by the
          range midpoint, so this is an estimate, not a bound *)
  mag : float;
      (** conservative bound on |E[ε]| ([|mean| <= mag] by
          construction) — the monotone quantity the fixpoint iterates
          on; sizing decisions should trust this one *)
  var : float;  (** variance of ε *)
}

val zero_m : moments

type result = {
  noise : (string * moments) array;  (** per node, node order *)
  diverged : string list;
  iterations : int;
}

(** Single-node transfer (exposed for {!Wordlength}'s gain probing). *)
val transfer :
  (string * Interval.t) array ->
  Node.t ->
  moments list ->
  input_noise:(string -> moments) ->
  moments

val default_max_iter : int

(** [ranges] — a completed {!Range_analysis.result} (multiplication
    bounds); [input_noise] — source error moments per input node
    (default: noiseless). *)
val run :
  ?max_iter:int ->
  ?input_noise:(string -> moments) ->
  Graph.t ->
  ranges:Range_analysis.result ->
  result

val moments_of : result -> string -> moments option
val sigma_of : result -> string -> float option
val pp : Format.formatter -> result -> unit
