(** Compiled-executor gate — the differential oracle for {!Compile}.

    The flat-schedule executor earns its speed only if it is
    {e indistinguishable} from the reference interpreter.  This gate
    runs compiled-vs-interpreted byte-equality (every node, every step,
    every lane) over the flowgraphs of the conformance workloads (all six) —
    both the freshly {e extracted} graph and, where a block has one, the
    hand-written {e analytic} twin — at batch sizes 1, 4 and 64, with
    and without a deterministic fault plan replayed into both executors.
    A final check asserts that the sweep's compiled candidate evaluation
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

(** [stimulus plan g name lane step] — the gate's deterministic sample
    for input [name]: a draw of [plan] spread over the input node's
    declared interval, [[-1, 1]] when that interval is non-finite,
    degenerate or wider than 1e6. *)
val stimulus : Fault.Plan.t -> Sfg.Graph.t -> string -> int -> int -> float

(** Run the gate over every conformance workload. *)
val run : unit -> report

val passed : report -> bool
val pp_report : Format.formatter -> report -> unit
