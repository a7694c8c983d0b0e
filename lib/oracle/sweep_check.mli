(** Sweep-determinism gate — oracle for the parallel exploration
    engine.

    Runs a small FIR sweep per strategy at [jobs=1] and [jobs=N] and
    compares the canonical JSON reports byte-for-byte; any scheduling
    dependence (order-sensitive merging, shared worker state) fails
    the gate.  Wired into [fxrefine check --jobs]. *)

type result = {
  strategy : string;
  jobs : int;  (** the parallel side's worker count *)
  candidates : int;  (** evaluated by each side *)
  identical : bool;  (** sequential and parallel JSON byte-equal *)
}

type report = { results : result list }

(** [sweep ?counters ~jobs ~strategy ()] — the gate's small FIR sweep
    (128 cycles, stimulus seeds 0 and 1) under [strategy], run on
    [jobs] workers with [counters] (default off) as in
    {!Sweep.Pool.run}.  The trace gate runs the same sweeps. *)
val sweep :
  ?counters:bool -> jobs:int -> strategy:string -> unit -> Sweep.Report.t

(** The strategies the gate exercises: grid, bisect, pareto. *)
val strategies : string list

(** The parallel side's worker count every gate runs with:
    [Some j] is clamped to [max 2 j], and [None] is
    [max 2 (min 4 (Domain.recommended_domain_count ()))] — always ≥ 2
    so the parallel code path is exercised even on one core. *)
val gate_jobs : int option -> int

(** Run the gate; [jobs] below 2 is clamped to 2. *)
val run : ?jobs:int -> unit -> report

val passed : report -> bool
val pp_report : Format.formatter -> report -> unit
