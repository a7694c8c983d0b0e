(** Fault-injection gate — oracle for the resilience layer.

    Checks that fault schedules replay exactly ([(seed, plan)] pure),
    that a faulted FIR sweep quarantines deterministically and renders
    byte-identical partial reports at [jobs=1] vs [jobs=N], and that
    the [Collect] overflow policy degrades gracefully (run completes,
    faults recorded).  Wired into [fxrefine check --faults]. *)

type result = {
  name : string;
  detail : string;  (** human-readable evidence line *)
  ok : bool;
}

type report = { results : result list }

(** The canonical crash-mode gate plan (seed 42, bitflips + forced
    overflows under {!Fault.Plan.Force_raise}). *)
val plan : unit -> Fault.Plan.t

(** Run the gate; [jobs] below 2 is clamped to 2. *)
val run : ?jobs:int -> unit -> report

val passed : report -> bool
val pp_report : Format.formatter -> report -> unit
