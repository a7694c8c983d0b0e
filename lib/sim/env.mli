(** Simulation environment: the signal registry and the clock (§2).

    Owns every signal object of a design, the deterministic noise source
    used by [error()] overruling, the clock that commits registered
    signals, and the design-wide overflow policy.

    The full mutable state of a signal is the {!entry} record — exposed
    because {!Signal} (the user-facing operations) lives in a sibling
    module; treat it as the library-internal state contract and use
    {!Signal}'s accessors from application code.

    The registry is engineered for the simulation hot path: entries live
    in a dense array in declaration order with a hash index by name
    (O(1) {!find}, duplicate names rejected at {!register} time), every
    typed entry caches a compiled quantizer ({!Fixpt.Quantize.compiled})
    so assignment never re-derives code bounds or the step, and staged
    register writes are tracked in a dirty list so {!tick} touches only
    the signals actually written this cycle. *)

type kind =
  | Comb  (** the paper's [sig]: assignment takes effect immediately *)
  | Registered  (** the paper's [reg]: staged until the next clock tick *)

(** What simulation does when an [Error]-mode type overflows (§2.1). *)
type overflow_policy =
  | Count  (** record silently; reports show the count *)
  | Warn  (** log a warning (first few) and record *)
  | Raise  (** abort simulation with {!Overflow} *)
  | Collect
      (** degraded-mode {!Raise}: record a structured {!fault_record}
          and keep simulating — the crash becomes a diagnostic,
          retrievable via {!collected_faults} *)

(** Raised by an [Error]-mode overflow under {!Raise}.  A [Printexc]
    printer is registered, so an uncaught raise prints the signal name,
    offending value and cycle instead of the opaque constructor. *)
exception Overflow of { signal : string; value : float; time : int }

(** One collected overflow under the {!Collect} policy. *)
type fault_record = { f_signal : string; f_value : float; f_time : int }

type t

(** The simulation values of one signal: committed fixed/float pair plus
    the staged pair of registered signals — an all-float record (flat
    representation) so per-sample stores mutate without boxing. *)
type vals = {
  mutable fx : float;
  mutable fl : float;
  mutable next_fx : float;
  mutable next_fl : float;
}

type entry = {
  env : t;  (** owning environment *)
  name : string;
  id : int;
  kind : kind;
  mutable dtype : Fixpt.Dtype.t option;  (** [None] = floating-point *)
  mutable quant : Fixpt.Quantize.compiled option;
      (** compiled form of [dtype]; kept in sync by {!set_entry_dtype} *)
  v : vals;  (** committed and staged simulation values *)
  mutable staged : bool;
  mutable in_dirty : bool;  (** already on the env's dirty list *)
  range_stat : Stats.Running.t;  (** observed ideal values *)
  range_prop : float array;
      (** accumulated propagated range: an {!Interval.Row} interval at
          offset 0, empty until the first assignment *)
  mutable explicit_range : Interval.t option;  (** [range()] annotation *)
  mutable error_inject : float option;  (** [error(h)] annotation *)
  err : Stats.Err_stats.t;
  mutable grid_lsb : int option;
      (** finest LSB position needed to represent the assigned ideal
          values exactly *)
  mutable n_assign : int;
  mutable n_access : int;
  mutable n_overflow : int;
  mutable last_overflow : float option;
}

(** Fresh environment; [seed] fixes the error-mode RNG. *)
val create : ?seed:int -> ?policy:overflow_policy -> unit -> t

(** Current cycle number. *)
val time : t -> int

(** The environment's RNG (error-mode draws, stimuli). *)
val rng : t -> Stats.Rng.t

(** The float row {!Signal.assign} feeds the cast and the monitors
    from (a few slots), so no float crosses into [lib/fixpt] or
    [lib/stats] boxed.  One per environment: sweep workers simulate
    their environments on separate domains at once. *)
val monitor_row : t -> float array

(** The assignment cast's scratch cell, one per environment like
    {!monitor_row}. *)
val scratch : t -> Fixpt.Quantize.scratch

(** Change what [Error]-mode overflows do. *)
val set_policy : t -> overflow_policy -> unit

(** Attach an observability sink (see {!Trace.Sink}).  Registration
    events replay for every signal already in the registry, so the
    sink's id→name map is complete whatever the attachment order.  One
    sink per environment; fan out with {!Trace.Sink.tee}. *)
val set_sink : t -> Trace.Sink.t -> unit

(** Detach — back to {!Trace.Sink.null} (one pointer compare per
    assignment, no allocation). *)
val clear_sink : t -> unit

(** The currently attached sink ({!Trace.Sink.null} when disabled). *)
val sink : t -> Trace.Sink.t

(** Arm the fault-injection hook: [f entry fx'] maps every
    post-quantization value before it is stored or staged (see
    {!Fault.Inject}).  One injector per environment — the fault layer
    composes schedules itself.  [f] must be deterministic in
    [(entry, time)] for replayability, and is expected to emit its own
    [on_fault] sink events / overflow records. *)
val set_injector : t -> (entry -> float -> float) -> unit

(** Disarm the fault-injection hook (back to one [match] per
    assignment, no transform). *)
val clear_injector : t -> unit

(** The armed injector, if any. *)
val injector : t -> (entry -> float -> float) option

(** Faults recorded under the {!Collect} policy, chronological.
    Cleared by {!reset}. *)
val collected_faults : t -> fault_record list

(** Number of collected faults (length of {!collected_faults}). *)
val collected_count : t -> int

(** Declare a signal (use {!Signal.create} / {!Signal.create_reg}).
    Raises [Invalid_argument] if the name is already registered. *)
val register : t -> name:string -> kind:kind -> dtype:Fixpt.Dtype.t option -> entry

(** Retype an entry, rebuilding its compiled quantizer (the refinement
    flow rewrites types between iterations). *)
val set_entry_dtype : entry -> Fixpt.Dtype.t option -> unit

(** Signals in declaration order — the order the paper's tables use. *)
val signals : t -> entry list

(** Look a signal up by name. *)
val find : t -> string -> entry option

(** Raises [Invalid_argument] for an unknown name. *)
val find_exn : t -> string -> entry

(** Apply the overflow policy to an [Error]-mode overflow event. *)
val record_overflow : t -> entry -> float -> unit

(** Stage the register write already stored in the entry's
    [v.next_fx]/[v.next_fl] for the next {!tick}, tracking the entry on
    the environment's dirty list. *)
val stage : t -> entry -> unit

(** Commit all staged register writes — one clock tick.  Only entries
    written since the previous tick are touched; registers without a
    staged write hold their value. *)
val tick : t -> unit

(** Register an initialization action, run now and again after every
    {!reset} — the "constructor initialization" of the paper's listings
    (coefficient loading etc.). *)
val at_reset : t -> (unit -> unit) -> unit

(** Reset dynamic state (values, staging, time) and the monitors, keep
    declarations and annotations.  Used between refinement iterations.

    The environment RNG is rewound to the creation seed ([reseed:true],
    the default) so back-to-back runs consume identical noise streams;
    pass [~reseed:false] to keep the continuing stream. *)
val reset : ?reseed:bool -> t -> unit

(** Frozen copy of an environment's refinement-relevant configuration:
    every signal's declared dtype, [range()]/[error()] annotations, and
    the overflow policy — {e not} the dynamic simulation state.  Cheap
    to take (one small record per signal) and cheap to reapply, so a
    design instantiated once can be returned to a pristine baseline
    between candidate evaluations of a wordlength sweep without
    re-registering anything. *)
type snapshot

(** Capture the current configuration of every registered signal. *)
val snapshot : t -> snapshot

(** Reapply a snapshot to an environment with the {e same} signal
    registry (same names, same declaration order — e.g. the environment
    the snapshot was taken from, or another instance built by the same
    design constructor), then {!reset} it (monitors cleared, RNG
    rewound, reset hooks replayed).  Compiled quantizers are rebuilt
    only for entries whose dtype actually changed.

    Raises [Invalid_argument] when the registry shape does not match. *)
val restore_into : snapshot -> t -> unit

(** Log source for the simulation engine. *)
val src : Logs.src
