(** Deterministic pseudo-random number generation (SplitMix64).

    All stimuli in the library come from explicit generator states so
    experiments are exactly reproducible run-to-run. *)

type t

val create : seed:int -> t
val copy : t -> t

(** Rewind the generator to the stream of [create ~seed] — what
    [Sim.Env.reset] uses so every simulation run replays identical
    stimuli/noise. *)
val reseed : t -> seed:int -> unit

(** SplitMix64's output function, a bijective 64-bit mixer: draw [k]
    of [create ~seed] is [mix (seed + (k + 1)·γ)].  {!Fault.Plan}
    hashes its fault decisions with it. *)
val mix : int64 -> int64

(** Independent child stream. *)
val split : t -> t

(** Uniform in [[0, 1)] (top 53 bits). *)
val float : t -> float

(** Uniform in [[lo, hi)]. *)
val uniform : t -> lo:float -> hi:float -> float

(** Uniform in [[-h, h]] — the paper's [error(h)] injection model
    (σ = h/√3). *)
val uniform_sym : t -> float -> float

(** [fill_uniform_sym_at ~seeds h k dst off] — draw [k] of B streams
    at once: [dst.(off + l)] becomes the [k]-th (0-based) draw of
    [uniform_sym _ h] on a fresh [create ~seed:seeds.(l)] stream,
    computed directly in O(1) per lane with no allocation, bit-identical
    to drawing in order: a pure, random-access view of the streams.
    Raises [Invalid_argument] when the row falls outside [dst]. *)
val fill_uniform_sym_at :
  seeds:int array -> float -> int -> float array -> int -> unit

(** Uniform integer in [[0, n)]; raises [Invalid_argument] if [n <= 0]. *)
val int : t -> int -> int

val bool : t -> bool

(** Box–Muller standard-normal generator state. *)
type gauss_state

val gauss_state : t -> gauss_state
val gauss : gauss_state -> float
val gauss_ms : gauss_state -> mean:float -> sigma:float -> float

(** ±1 symbol (binary PAM). *)
val pam2 : t -> float

(** PAM-M symbol from [±1/(m-1) … ±1]; [m] even, [>= 2]. *)
val pam : t -> m:int -> float
