(** The standard conformance workloads: the six example designs the
    metamorphic invariants and golden traces run over — FIR, LMS
    equalizer, CORDIC rotator, PAM timing recovery, the closed ML-TED
    M-PAM symbol synchronizer, and the DDC front end.  Each is a view of
    its {!Designs} catalogue entry: the design comes from the
    catalogue, the view adds the probe trackers, the VCD of a run and
    the analytical twins (extracted graph, bounds, predictions,
    tolerances).  Each build
    is fully deterministic (fixed seeds, fixed stimulus sizes) and
    fresh (its own [Sim.Env.t]), so a workload can be rebuilt and
    re-run bit-identically. *)

type built = {
  env : Sim.Env.t;
  workload : string;
  probe : string;  (** the performance/divergence probe signal *)
  run : unit -> unit;  (** one full monitored stimulus set *)
  graph : Sfg.Graph.t option;
      (** the analytical twin the metamorphic range cross-check runs
          on: the flowgraph extracted from a fresh instance of the same
          design (fir and lms) *)
  extract_graph : (unit -> Sfg.Graph.t) option;
      (** record one cycle of the design's own step body and return the
          extracted flowgraph ({!Sim.Extract.graph}) — the graphs
          {!Compile_check} runs compiled-vs-interpreted equality over.
          Calling it advances the design by one cycle (extraction is one
          more ordinary simulated cycle). *)
  divergence_bound : float option;
      (** sound bound on [|fx - fl|] at the probe, from the accumulated
          lsb steps of the quantization points on the path (feed-forward
          workloads only; feedback loops have no closed-form bound) *)
  max_divergence : unit -> float;  (** observed max [|fx - fl|] at probe *)
  sqnr : Stats.Sqnr.t;  (** accumulated (fl, fx) pairs at the probe *)
  predicted_sqnr_db : (unit -> float) option;
      (** quasi-analytical SQNR prediction from the uniform noise model
          of each quantization point (call after [run]) *)
  sqnr_tolerance_db : float;
  stat_tolerance : float;
      (** bracketing slack: comb-signal quantization can push committed
          values past the pre-quantization propagated bound by a few
          steps, amplified by downstream gain *)
  design : Refine.Flow.design option;
      (** refinement-flow view (golden refine reports); resets the
          divergence/SQNR trackers too *)
  vcd : unit -> string;
      (** VCD trace of the probe signals over the first sampled cycles
          of the last [run] *)
}

type t = { name : string; build : unit -> built }

(** [fir; lms; cordic; timing; sync; ddc]. *)
val all : t list

val find : string -> t option
