(** Seeded, deterministic fault schedules.

    A plan describes which fault classes to inject, at which rates,
    into which signals.  Whether a particular fault fires is a {e pure
    hash} of [(plan seed, stream tag, key, index)] — not the state of
    an advancing RNG — so the schedule is independent of evaluation
    order, worker count and scheduling: the same [(seed, plan)] replays
    the identical fault set anywhere.  That property is what lets the
    sweep quarantine the same candidates at any [--jobs] and the
    oracle's fault gate compare whole runs byte-for-byte. *)

(** What {!Inject.arm_env} does to an armed environment's overflow
    policy. *)
type policy_override =
  | Keep  (** leave the design's own policy in place *)
  | Force_raise  (** {!Sim.Env.Raise}: faults crash the run *)
  | Force_collect
      (** {!Sim.Env.Collect}: faults are recorded and the run keeps
          going (graceful degradation) *)

type t = {
  seed : int;  (** schedule seed — everything replays from it *)
  nan_rate : float;  (** stimulus sample → NaN *)
  inf_rate : float;  (** stimulus sample → ±∞ *)
  denormal_rate : float;  (** stimulus sample → an IEEE denormal *)
  extreme_rate : float;  (** stimulus sample → ±[extreme_mag] *)
  extreme_mag : float;  (** magnitude of an extreme sample *)
  bitflip_rate : float;  (** post-quantization SEU per assignment *)
  force_overflow_rate : float;  (** forced overflow event per assignment *)
  starve_after : int option;  (** channel produces only this many samples *)
  targets : string list;  (** signal names to inject into; [] = all *)
  on_overflow : policy_override;
}

(** Build a plan; every rate defaults to 0 (inject nothing).  Rates
    must lie in [[0, 1]]; [extreme_mag] (default 1e30) must be finite
    positive; [starve_after] must be non-negative.  Raises
    [Invalid_argument] otherwise. *)
val make :
  ?seed:int ->
  ?nan_rate:float ->
  ?inf_rate:float ->
  ?denormal_rate:float ->
  ?extreme_rate:float ->
  ?extreme_mag:float ->
  ?bitflip_rate:float ->
  ?force_overflow_rate:float ->
  ?starve_after:int ->
  ?targets:string list ->
  ?on_overflow:policy_override ->
  unit ->
  t

(** The plan that injects nothing. *)
val none : t

(** Is [name] subject to injection under this plan?  ([targets = []]
    means every signal is.) *)
val is_target : t -> string -> bool

(** Uniform float in [[0, 1)] — a pure function of the plan seed and
    the [(stream, key, index)] coordinate. *)
val draw : t -> stream:string -> key:string -> index:int -> float

(** Does the fault of class [stream] fire at this coordinate, given
    [rate]?  Pure; scheduling-independent. *)
val fires : t -> stream:string -> key:string -> index:int -> rate:float -> bool

(** The assignment-site fault kinds firing for [signal] at cycle
    [time] under discriminator [tag] (e.g. the candidate stimulus seed;
    "" standalone).  Kinds are the stable [on_fault] vocabulary:
    ["bitflip"], ["force-overflow"]. *)
val assign_faults : t -> tag:string -> signal:string -> time:int -> string list

(** The stimulus fault class (if any) for sample [index] of channel
    [channel]; first match in the order NaN, ∞, denormal, extreme. *)
val stimulus_fault :
  t ->
  tag:string ->
  channel:string ->
  index:int ->
  [ `Nan | `Inf | `Denormal | `Extreme ] option

(** Render the assignment-site schedule over an explicit
    [signals × cycles] grid as [(time, signal, kind)] triples — the
    replayable artifact the fault gate compares across runs. *)
val schedule :
  t -> ?tag:string -> signals:string list -> cycles:int -> unit ->
  (int * string * string) list

val policy_override_of_string : string -> (policy_override, string) result

(** Canonical flat JSON (fixed key order, {!Trace.Json} formatting);
    byte-stable and round-trippable through {!of_json}. *)
val to_json : t -> string

(** Parse a plan from flat JSON.  Missing keys take the {!make}
    defaults; unknown keys, malformed values and out-of-range rates are
    [Error]. *)
val of_json : string -> (t, string) result

val pp : Format.formatter -> t -> unit
