(** Radix-2 decimation-in-time FFT as a monitored block — the canonical
    bit-growth workload: every butterfly stage can double the magnitude
    (one MSB per stage) unless the architecture scales by ½ per stage,
    which moves the question to the LSB side instead. *)

type t

(** [n] a power of two in [[2, 4096]]; [scale] selects ½-per-stage. *)
val create : Sim.Env.t -> ?prefix:string -> ?scale:bool -> n:int -> unit -> t

val size : t -> int
val stage_count : t -> int

(** Signals of stage [s] (0 = bit-reversed input, [stages] = output). *)
val stage_signals : t -> int -> Sim.Signal.t list

(** One transform over [n] complex pairs. *)
val transform :
  t -> (Sim.Value.t * Sim.Value.t) array -> (Sim.Value.t * Sim.Value.t) array

(** Direct-evaluation DFT, optionally with the scaled architecture's
    [1/n] gain. *)
val reference : ?scale:bool -> (float * float) array -> (float * float) array

(** Apply a dtype to every stage signal. *)
val set_dtype : t -> Fixpt.Dtype.t -> unit
