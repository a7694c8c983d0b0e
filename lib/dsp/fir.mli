(** Direct-form FIR filter as a monitored hardware block, with the
    paper-style signal structure: coefficient array [c], registered
    delay line [d], accumulator chain [v] ([v[i] = v[i-1] +
    d[i-1]·c[i-1]], §3).  The registered line gives the block one cycle
    of latency. *)

type t

(** Declares signals [<prefix>c], [<prefix>d], [<prefix>v]; coefficient
    loading is registered as an [Env] reset hook. *)
val create :
  Sim.Env.t ->
  ?prefix:string ->
  ?coef_dtype:Fixpt.Dtype.t ->
  ?delay_dtype:Fixpt.Dtype.t ->
  ?acc_dtype:Fixpt.Dtype.t ->
  coefs:float array ->
  unit ->
  t

val length : t -> int
val coefs : t -> Sim.Sig_array.t
val delay_line : t -> Sim.Sig_array.t
val accumulators : t -> Sim.Sig_array.t

(** One clock cycle: shift the input in, fold the accumulator chain,
    return [v[n]]. *)
val step : t -> Sim.Value.t -> Sim.Value.t

(** Pure float reference (zero-latency convolution). *)
val reference : coefs:float array -> float array -> float array

(** Worst-case gain [Σ|c|]. *)
val worst_case_gain : float array -> float

(** The same filter as a hand-built flowgraph, for the VHDL fixtures;
    returns [(input node, output node)]. *)
val to_sfg :
  coefs:float array ->
  input_range:float * float ->
  Sfg.Graph.t ->
  Sfg.Graph.id * Sfg.Graph.id
