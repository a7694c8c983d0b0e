(** Compiled-executor gate — the differential oracle for {!Compile}.

    The flat-schedule executor earns its speed only if it is
    {e indistinguishable} from the reference interpreter.  This gate
    runs compiled-vs-interpreted byte-equality (every node, every step,
    every lane) over the flowgraph freshly {e extracted} from each of the
    six conformance workloads at batch sizes 1, 4 and 64.  A final check asserts that the sweep's compiled candidate evaluation
    ({!Refine.Eval.evaluate_compiled}) reproduces the clock-true
    interpreter's metrics bit-for-bit on the FIR sweep workload, one
    candidate at a time and with the same candidates as the lanes of
    one block ({!Refine.Eval.evaluate_lanes}).

    Wired into [fxrefine check --compiled]. *)

type result = {
  name : string;
  detail : string;  (** human-readable evidence line *)
  ok : bool;
}

type report = { results : result list }

(** Steps each equality run simulates (per lane). *)
val steps : int

(** [equality_mismatches ~batch ~steps g] — the node samples, over
    every node, step and lane, where [g] compiled at [batch] lanes
    differs from the interpreter in [steps] steps of the gate's
    deterministic stimulus: each input's samples spread
    over its declared interval, [[-1, 1]] when that interval is
    non-finite, degenerate or wider than 1e6.  0 when they are
    bit-identical. *)
val equality_mismatches : batch:int -> steps:int -> Sfg.Graph.t -> int

(** Run the gate over every conformance workload. *)
val run : unit -> report

val passed : report -> bool
val pp_report : Format.formatter -> report -> unit
