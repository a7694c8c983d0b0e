(** Sweep workloads — self-contained designs a sweep explores.

    A workload is a factory of private simulation {!instance}s (one per
    worker domain), a probe signal, and the {!Candidate.spec} list the
    generators assign wordlengths to.  Each instance carries a baseline
    {!Sim.Env.snapshot} taken at construction; restoring it before
    every candidate makes evaluations start from an identical state —
    the foundation of the sweep's determinism guarantee. *)

type instance = {
  env : Sim.Env.t;
  design : Refine.Flow.design;
  baseline : Sim.Env.snapshot;  (** configuration right after build *)
  set_seed : int -> unit;
      (** stimulus seed for the next [design.reset]/[design.run] *)
  compiled : Refine.Eval.compiled_eval option;
      (** compiled-executor support: when present, the pool evaluates
          candidates with {!Refine.Eval.evaluate_compiled} (identical
          metrics, ~an order of magnitude faster); [None] — or a
          [~counters:true] sweep — keeps the clock-true interpreter.
          The fault wrapper ({!Fault.Inject.workload}) strips it: its
          injector arms around [design.run], which the compiled path
          does not execute. *)
}

type t = {
  name : string;
  probe : string;  (** the signal SQNR/error metrics are read from *)
  specs : Candidate.spec list;  (** the signals the sweep retypes *)
  make_instance : unit -> instance;
      (** fresh private instance sharing no mutable state with others *)
}

(** {!Designs.Fir.sweep}: a 12-signal direct-form FIR ([x], delay line
    [d[0..4]], accumulator chain [v[1..5]], [out]) over [n] cycles
    (default 512) of seeded uniform stimulus; probe [out]. *)
val fir : ?n:int -> unit -> t

(** {!Designs.Sync.sweep}: the closed ML-TED PAM-4 synchronizer over
    [n_symbols] (default 160) drifting-tau symbols per candidate; probe
    [out].  Always
    interpreter-evaluated ([compiled = None]): the loop's strobe/hold
    control flow is data-dependent, so a frozen one-cycle extraction is
    not clock-true for it. *)
val sync : ?n_symbols:int -> unit -> t

(** Every built-in workload (fresh builders, default sizes). *)
val all : unit -> t list

(** Look a built-in workload up by {!t.name}. *)
val find : string -> t option
