(** Trace-determinism gate: per sweep strategy, (1) counters JSON at
    [jobs=1] vs [jobs=N] must be byte-identical, and (2) attaching the
    counting sink must leave the ordinary sweep report byte-identical
    (observer neutrality).  It runs {!Sweep_check.sweep}'s sweeps over
    {!Sweep_check.strategies}, with [jobs] set by
    {!Sweep_check.gate_jobs}.  Wired into [fxrefine check]. *)

type result = {
  strategy : string;
  jobs : int;  (** the parallel side's worker count *)
  candidates : int;
  counters_identical : bool;
      (** counters JSON at jobs=1 vs jobs=N byte-equal *)
  observer_neutral : bool;
      (** report JSON with vs without counters byte-equal *)
}

type report = { results : result list }

(** Run the gate ([jobs] below 2 is raised to 2 — comparing jobs=1
    against itself would prove nothing). *)
val run : ?jobs:int -> unit -> report

val passed : report -> bool
val pp_report : Format.formatter -> report -> unit
