(** The complex evaluation example (§6.1, Fig. 5): PAM timing recovery
    at two samples per symbol — {!Dsp.Synchronizer} with the Gardner
    detector on binary PAM (interpolator, Gardner TED, PI loop filter,
    NCO) — on a static timing offset τ = 0.3.  The input is a
    saturating type annotated ±1.6; probe [out]. *)

type parts = {
  sy : Dsp.Synchronizer.t;
  sent : float array;  (** the transmitted symbols *)
  output : Sim.Channel.t;  (** the recorded symbol-rate samples *)
}

(** §6.1's knowledge-based [range()] saturations of a synchronizer
    loop: the NCO fractional offset in [0, 1], the loop-filter input in
    ±0.25, the detector error in ±4, the interpolant in ±2 (its
    derivative, under the ML detector, in ±4) and the output in ±2. *)
val set_knowledge_ranges : Dsp.Synchronizer.t -> unit

(** [n_symbols] (default 4000) symbols from stimulus seed [seed]
    (default 99) at channel noise [noise_sigma] (default 0.01); the
    input type is ⟨[input_bits]⟩ (default ⟨10,8⟩);
    [knowledge_ranges] (default [true]) applies
    {!set_knowledge_ranges}; [kp], [ki] as {!Dsp.Synchronizer.create}. *)
val build :
  ?n_symbols:int ->
  ?seed:int ->
  ?noise_sigma:float ->
  ?knowledge_ranges:bool ->
  ?input_bits:int * int ->
  ?kp:float ->
  ?ki:float ->
  unit ->
  parts Design.t

(** [config base]: [base] with §6.1's automatic error() overrule at LSB
    −8, tied to the ⟨10,8⟩ input's precision — the LSB the flow fixes on
    a feedback signal whose error monitoring diverges. *)
val config : Refine.Flow.config -> Refine.Flow.config

(** A saturating input type ["T_input"] of [n] bits, [f] fractional. *)
val input_dtype : n:int -> f:int -> Fixpt.Dtype.t
