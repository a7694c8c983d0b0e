(* Test runner: aggregates every module's suite. *)

let () =
  Alcotest.run "fixrefine"
    [
      Test_modes.suite;
      Test_qformat.suite;
      Test_quantize.suite;
      Test_fixed.suite;
      Test_interval.suite;
      Test_stats.suite;
      Test_value_ops.suite;
      Test_signal.suite;
      Test_sim_infra.suite;
      Test_sfg.suite;
      Test_dsp_blocks.suite;
      Test_dsp_loops.suite;
      Test_refine_rules.suite;
      Test_flow.suite;
      Test_vhdl.suite;
      Test_extract.suite;
      Test_fft.suite;
      Test_integration.suite;
      Test_cic_cordic.suite;
      Test_misc.suite;
      Test_testbench.suite;
      Test_ddc.suite;
      Test_lms_fir.suite;
      Test_goertzel_agc.suite;
      Test_soak.suite;
      Test_coverage_extras.suite;
      Test_sfg_edges.suite;
      Test_hotpath.suite;
      Test_trace.suite;
      Test_merge.suite;
      Test_sweep.suite;
      Test_fault.suite;
      Test_compile.suite;
      Test_verify.suite;
      Test_serve.suite;
      Test_synchronizer.suite;
      Test_store.suite;
      Test_flat_value.suite;
      Test_designs.suite;
    ]
