(** Executing a {!Plan}: arming environments, channels and sweep
    workloads with deterministic fault injection.

    Every injected fault emits an [on_fault] sink event (kinds
    ["bitflip"], ["force-overflow"]; plus ["collect"] from the
    environment when the policy is {!Sim.Env.Collect}), so
    {!Trace.Counters} tallies faults per signal. *)

(** [flip_bit dt ~bit v] — flip bit [bit] (0 = LSB) of [v]'s integer
    code under [dt] and re-wrap into the code window: the
    single-event-upset model for a fixed-point register.  Identity for
    wordlengths beyond the exact int64 grid.  Raises
    [Invalid_argument] when [bit] is outside [0, n). *)
val flip_bit : Fixpt.Dtype.t -> bit:int -> float -> float

(** The {!Sim.Env.set_injector} closure for a plan under discriminator
    [tag] ("" standalone; the candidate stimulus seed in a sweep).
    Pure in [(entry, time)] — replayable anywhere. *)
val injector : Plan.t -> tag:string -> Sim.Env.entry -> float -> float

(** Arm an environment: apply the plan's overflow-policy override and
    install the assignment-site injector ([tag] defaults to ""). *)
val arm_env : Plan.t -> ?tag:string -> Sim.Env.t -> unit

(** Wrap a source channel's producer under the plan: samples are
    corrupted per the stimulus rates and — when [starve_after] is set —
    the stream dries up after that many samples.  [strict] starvation
    raises {!Sim.Channel.Empty} (the crash path); the default degrades
    to silence (0.0).  Raises [Invalid_argument] on a channel with no
    producer. *)
val wrap_channel : Plan.t -> ?tag:string -> ?strict:bool -> Sim.Channel.t -> unit

(** Wrap a sweep workload so every candidate evaluation runs under the
    plan.  The policy override is baked into each instance's baseline
    snapshot, and the injector is armed only around [design.run],
    keyed by the candidate's stimulus seed — so the fault set of a
    candidate is a pure function of [(plan, candidate)] and the sweep
    report stays byte-identical for any [--jobs]. *)
val workload : Plan.t -> Sweep.Workload.t -> Sweep.Workload.t
