(** The paper's motivational example (§3, Fig. 1): the adaptive LMS
    equalizer of {!Dsp.Lms_equalizer} on ±1 PAM through a short ISI
    channel, its input quantized to a saturating ⟨7,5⟩ and annotated
    [x.range(-1.5, 1.5)]; probe [w]. *)

type parts = {
  eq : Dsp.Lms_equalizer.t;
  sent : float array;  (** the transmitted symbols *)
  output : Sim.Channel.t;  (** the recorded decisions *)
}

(** [n_symbols] (default 4000) symbols from stimulus seed [seed]
    (default 2024) at channel noise [noise_sigma] (default 0.02);
    [steered] as {!Dsp.Lms_equalizer.create}. *)
val build :
  ?steered:bool ->
  ?noise_sigma:float ->
  ?n_symbols:int ->
  ?seed:int ->
  unit ->
  parts Design.t

(** The flowgraph extracted from the untyped equalizer with its
    feedback annotated [b.range(-0.2, 0.2)], after 100 cycles, with
    outputs [y] and [w]. *)
val extracted : unit -> Sfg.Graph.t
