(** The simulated sides of the pinned VHDL golden cases. *)

(** The 3-tap FIR ({!Fir.conformance_coefs}) with every signal a
    saturating ⟨10,8⟩, driven by 16 seeded uniform samples in ±0.9:
    the captured bit-true input/output codes, the golden vectors of
    its self-checking testbench. *)
val fir_testbench_vectors : unit -> Vhdl.Testbench.vector list

(** The synchronizer's refined feedback slice — ML-TED error into the
    PI loop filter — extracted as a flowgraph with output [lf_lferr].
    Gains are exact binary fractions (kp = 1/64, ki = 1/2048) and the
    sliced decision folds to an exact constant, so VHDL emitted from it
    is platform-stable (no divider, no libm). *)
val sync_loop_graph : unit -> Sfg.Graph.t
