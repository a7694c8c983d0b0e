(* Conformance suite entry point: the differential quantization oracle,
   the metamorphic workload invariants, golden traces and the emitted
   VHDL.  Runs under `dune runtest` (tier 1).  Nothing here is
   wall-clock: speed is measured by perfbench/, never by a test. *)

let () =
  Alcotest.run "conformance"
    [
      Conf_differential.suite;
      Conf_metamorphic.suite;
      Conf_golden.suite;
      Conf_vhdl.suite;
    ]
