(** Second-order IIR section (direct form I) — the controllable feedback
    workload: pole radius sets how fast ranges and errors grow, and the
    §4.2 "limit cycle" caveat lives here. *)

type coeffs = { b0 : float; b1 : float; b2 : float; a1 : float; a2 : float }

type t

val create : Sim.Env.t -> ?prefix:string -> coeffs -> t
val output : t -> Sim.Signal.t
val signals : t -> Sim.Signal.t list
val step : t -> Sim.Value.t -> Sim.Value.t
val reference : coeffs -> float array -> float array

(** Unity-DC-gain resonator with pole radius [r ∈ [0, 1)] and angle
    [theta]. *)
val resonator : r:float -> theta:float -> coeffs

(** Sum of |impulse response| truncated at [horizon] — the worst-case
    output bound sound range propagation may not undershoot. *)
val l1_gain : ?horizon:int -> coeffs -> float

(** The biquad as an analytical flowgraph; [y_range] bounds the feedback
    tap (a [range()] annotation).  Returns [(input, output)] nodes. *)
val to_sfg :
  ?prefix:string ->
  ?y_range:float * float ->
  input_range:float * float ->
  coeffs ->
  Sfg.Graph.t ->
  Sfg.Graph.id * Sfg.Graph.id
