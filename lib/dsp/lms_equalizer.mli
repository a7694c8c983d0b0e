(** The paper's motivational example (§3, Fig. 1): a simplified
    symbol-spaced adaptive LMS equalizer for binary PAM, matching the
    paper's listing line by line — FIR with constant coefficients [c],
    delay line [d], accumulator chain [v], feedback correction
    [w = v[N] − b·s], slicer [y], adaptation [b ← b + μ·s·(w − y)].
    Reconstructed constants are documented in DESIGN.md §2. *)

type t

(** [steered:false] is the §4.2 ablation knob (float side takes its own
    slicer decisions); [x_dtype] quantizes the input (the partial type
    definition). *)
val create :
  Sim.Env.t ->
  ?coefs:float array ->
  ?mu:float ->
  ?steered:bool ->
  ?x_dtype:Fixpt.Dtype.t ->
  input:Sim.Channel.t ->
  output:Sim.Channel.t ->
  unit ->
  t

val x : t -> Sim.Signal.t
val w : t -> Sim.Signal.t
val b : t -> Sim.Signal.t
val s : t -> Sim.Signal.t
val y : t -> Sim.Signal.t
val fir : t -> Fir.t
val env : t -> Sim.Env.t

(** The signals of the paper's Tables 1 and 2, in table order. *)
val table_signals : t -> Sim.Signal.t list

(** One symbol period (the paper's [while(1)] body). *)
val step : t -> unit

val run : t -> cycles:int -> unit
