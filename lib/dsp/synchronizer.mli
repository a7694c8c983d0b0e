(** The closed symbol-timing synchronizer: the paper's Fig. 5 loop
    ([~ted:Gardner ~m:2 ~sps:2]) generalized to a selectable Gardner /
    decision-directed ML-TED detector, M-PAM constellations and
    oversampling [sps ≥ 2].  Interpolator (matched filter + derivative
    matched filter for ML), PI loop filter, modulo-1 NCO; soft
    decision-instant samples go to [output] (MER/EVM scoring), sliced
    symbols optionally to [decisions] (SER).  The §6.1 phenomena live
    in the loop-filter integrator (MSB explosion → saturation) and the
    NCO phase (LSB divergence → [error()] overrule). *)

type ted = Gardner | Ml

type t

val create :
  Sim.Env.t ->
  ?kp:float ->
  ?ki:float ->
  ?ted:ted ->
  ?m:int ->
  ?sps:int ->
  ?x_dtype:Fixpt.Dtype.t ->
  input:Sim.Channel.t ->
  output:Sim.Channel.t ->
  ?decisions:Sim.Channel.t ->
  unit ->
  t

val env : t -> Sim.Env.t
val detector : t -> ted
val constellation : t -> int
val sps : t -> int
val input_signal : t -> Sim.Signal.t
val output_signal : t -> Sim.Signal.t
val interpolator : t -> Interpolator.t
val loop_filter : t -> Loop_filter.t
val nco : t -> Nco.t

(** The active detector's error signal. *)
val error_signal : t -> Sim.Signal.t

(** One input-sample clock cycle. *)
val step : t -> unit

val run : t -> samples:int -> unit

(** Symbol strobes seen since reset. *)
val strobes : t -> int

(** |strobes/(samples/sps) − 1| since reset; a locked loop keeps this
    within ~1%. *)
val strobe_rate_error : t -> float
