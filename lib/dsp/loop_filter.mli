(** Proportional-integral loop filter — the "Loop filter" block of
    Fig. 5: [lferr = Kp·err + ∫Ki·err].  Its integrator register is the
    classic §5.1 case-(b) accumulator. *)

type t

val create : Sim.Env.t -> ?prefix:string -> kp:float -> ki:float -> unit -> t
val output : t -> Sim.Signal.t
val integrator : t -> Sim.Signal.t
val signals : t -> Sim.Signal.t list

(** Advance with one error sample; drives and returns [lferr]
    (including the fresh increment). *)
val step : t -> Sim.Value.t -> Sim.Value.t

(** No new sample this cycle: state holds, output re-driven. *)
val hold : t -> Sim.Value.t

val reference : kp:float -> ki:float -> float array -> float array

(** Second-order loop design: [(kp, ki)] for damping ζ = 0.7071,
    detector gain [kd], and normalized bandwidth [bn ∈ (0, 0.5)]. *)
val design : ?kd:float -> bn:float -> unit -> float * float
