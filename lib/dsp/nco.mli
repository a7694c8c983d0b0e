(** Numerically-controlled oscillator (interpolation control) — the
    "NCO" block of Fig. 5: a modulo-1 phase decrementer ([W = 1/sps +
    lferr], clamped to [[W/2, 3W/2]]); an underflow marks a strobe with
    fractional offset [mu = eta/W].  The phase register is the paper's
    "D signal inside of NCO" — the divergence-prone feedback state. *)

type t

val create : Sim.Env.t -> ?prefix:string -> sps:int -> unit -> t
val phase : t -> Sim.Signal.t
val mu : t -> Sim.Signal.t

(** The decremented phase before wrap (fresh after {!step}; with the
    registered [phase] still reading pre-update, the pair exposes the
    half-crossing a [sps = 2]-style Gardner mid-sample needs). *)
val next_phase : t -> Sim.Signal.t

(** The clamped control word W driven by the last {!step}. *)
val control : t -> Sim.Signal.t

val signals : t -> Sim.Signal.t list

(** Advance one input sample; [(strobed, mu)].  The strobe decision is
    steered by fixed-point values (§4.2). *)
val step : t -> Sim.Value.t -> bool * Sim.Value.t

(** Float reference over an lferr array: per-sample [(strobe, mu)]. *)
val reference : sps:int -> float array -> (bool * float) array
