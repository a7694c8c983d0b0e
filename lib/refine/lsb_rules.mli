(** LSB-side refinement rules (§5.2): place fractional bits with the
    σ-rule [2^p ≤ k_LSB·σ(ε_p)], decide round vs floor, detect
    float/fixed divergence on sensitive feedback signals (to be broken
    with [error()]), and check already-quantized signals' consumed vs
    produced precision. *)

type config = {
  k_lsb : float;  (** the σ-rule constant, optimal in [1, 4] *)
  divergence_ratio : float;
      (** diverged when m̂(ε_p) exceeds this fraction of the signal's own
          magnitude *)
  floor_bias_ratio : float;
      (** recommend floor only if q/2 ≤ this · k·σ *)
  min_lsb : int;  (** floor on positions *)
  exact_grid_floor : int;
      (** coarsest-allowed position for exact-grid constants (how finely
          to quantize coefficients is a transfer-function choice) *)
}

(** The paper's constants: [k_lsb = 1.0], divergence at 1%. *)
val default_config : config

(** Error monitoring diverged on this signal (§4.2). *)
val diverged : ?config:config -> Sim.Signal.t -> bool

(** LSB position for one signal from its monitors. *)
val decide : ?config:config -> Sim.Signal.t -> Decision.lsb

(** {!decide} over every eligible signal. *)
val decide_all : ?config:config -> Sim.Env.t -> Decision.lsb list

(** Diverged, not-yet-overruled signals — candidates for [error()]. *)
val diverged_signals : ?config:config -> Sim.Env.t -> Sim.Signal.t list

(** Overruled signals showing precision {e gain} across the assignment
    (injected error model under-estimates the loop error). *)
val instability_suspects : Sim.Env.t -> Sim.Signal.t list

(** Half-step of LSB position [p] — the [error()] half-width modelling
    quantization at [p] (paper: LSB −5 ↔ [error(0.0156)]). *)
val error_halfwidth_of_lsb : int -> float
