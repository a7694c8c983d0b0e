(** Fixrefine — fixed-point refinement for DSP hardware design.

    An OCaml reproduction of the methodology and design environment of
    R. Cmar, L. Rijnders, P. Schaumont, S. Vernalde and I. Bolsens,
    "A Methodology and Design Environment for DSP ASIC Fixed-Point
    Refinement", DATE 1999.

    This umbrella module re-exports the public API:

    - {!Fixpt}: fixed-point formats, types and quantization semantics;
    - {!Interval}: the interval arithmetic behind range propagation;
    - {!Stats}: running statistics, error statistics, SQNR, RNG;
    - {!Sim}: the simulation environment — dual fixed/float signals,
      overloaded operators, monitors, clocking, channels, VCD;
    - {!Trace}: the observability layer — event sinks (counters, ring
      buffer), wall-clock spans, Chrome trace_event/counters exporters
      behind [fxrefine trace] and the [--trace]/[--counters] flags;
    - {!Sfg}: signal-flow graphs and the pure analytical analyses;
    - {!Compile}: the flat-schedule batched executor — extracted graphs
      lowered to preallocated-array programs with fused quantizers,
      behind [fxrefine compile], [fxrefine check --compiled] and the
      sweep's compiled candidate evaluation;
    - {!Verify}: the sound bit-level verification oracle — exhaustive
      or bounded explicit-state search over the compiled executor that
      proves or refutes no-overflow and no-limit-cycle on refined
      designs, behind [fxrefine verify] and [fxrefine check --verify];
    - {!Refine}: the refinement rules, the design flow driver, and the
      two literature baselines;
    - {!Dsp}: the DSP block library (filters, CORDIC, CIC, the LMS
      equalizer, the symbol synchronizer, ...);
    - {!Designs}: the design catalogue — every example design (FIR,
      LMS equalizer, CORDIC, the Fig. 5 timing loop, the ML-TED
      synchronizer, the DDC, the FFT) built once, with its stimulus,
      §6.1 knowledge ranges and error() settings, step function and
      sweep specs; the workloads, the sweep, the CLI, the paper
      experiments and the examples are views of it;
    - {!Sweep}: the parallel (multicore) wordlength/stimuli exploration
      engine behind [fxrefine sweep];
    - {!Fault}: seeded deterministic fault injection (stimulus
      corruption, SEU bitflips, forced overflows, stream starvation)
      and the graceful-degradation plumbing behind [fxrefine faultsim]
      and [fxrefine check --faults];
    - {!Store}: durable files (the one crash-safe atomic writer) and
      the bit-exact [%h] monitor codec shared by cache payloads and
      sweep checkpoints;
    - {!Serve}: refinement-as-a-service — the content-addressed
      evaluation cache (persistent memoization of candidate
      evaluations) and the [fxrefine serve] daemon executing sweep
      jobs over a Unix socket, behind [fxrefine sweep --cache-dir],
      [fxrefine serve]/[fxrefine submit] and [fxrefine check --serve];
    - {!Vhdl}: VHDL generation for refined datapaths;
    - {!Oracle}: the conformance oracle — executable quantization spec,
      differential testing, metamorphic workload invariants, golden
      traces and the determinism, fault, compiled, verify, serve, sync
      and chaos gates behind [fxrefine check].

    Quickstart: see [examples/quickstart.ml]. *)

module Fixpt = Fixpt
module Interval = Interval
module Stats = Stats
module Sim = Sim
module Trace = Trace
module Sfg = Sfg
module Compile = Compile
module Verify = Verify
module Refine = Refine
module Dsp = Dsp
module Designs = Designs
module Sweep = Sweep
module Fault = Fault
module Store = Store
module Serve = Serve
module Vhdl = Vhdl
module Oracle = Oracle
