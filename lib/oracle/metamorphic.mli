(** Metamorphic cross-checks over the standard workloads
    ({!Workloads}): relations the three monitor layers and the
    analytical range analysis must satisfy with respect to each other,
    checked after one full deterministic run of each design.

    Per workload:
    - no overflow events (the workloads are sized to be overflow-free;
      wrap events would void the bracketing relations);
    - bracketing: every signal's statistic min/max lies inside its
      simulation-propagated interval, within the workload's quantization
      tolerance;
    - analytical bracketing (workloads with an SFG twin): statistic and
      propagated ranges lie inside the analytical interval of the
      same-named graph node (nodes the analysis reports as exploded are
      skipped — explosion is the diagnosis, not a bound; a typed
      signal's propagated range is checked against the hull of the
      analytical interval and its declared type range, because the
      quasi-analytical propagation seeds unassigned typed signals from
      the type range);
    - divergence: the observed max |fx − fl| at the probe is below the
      workload's accumulated-lsb-step bound (feed-forward designs);
    - SQNR: the measured probe SQNR agrees with the uniform-noise-model
      prediction (where one exists) and with {!Refine.Flow.sqnr_db}'s
      estimate from the signal's own monitors;
    - quantize idempotence: every typed signal's committed fixed-point
      value is a fixpoint of both the implementation cast and the
      {!Quantize_spec} cast;
    - produced-error soundness: per typed signal,
      max|ε_p| ≤ max|ε_c| + k·step (k = 1/2 for round, 1 for floor);
      untyped signals must have ε_p = ε_c exactly. *)

type failure = {
  workload : string;
  invariant : string;
  subject : string;  (** signal / probe the check was about *)
  detail : string;
}

type report = { workloads : string list; checked : int; failures : failure list }

(** Build, run and check one workload. *)
val run_workload : Workloads.t -> report

(** All five standard workloads. *)
val run_all : unit -> report

val merge : report -> report -> report
val passed : report -> bool
val pp_report : Format.formatter -> report -> unit
