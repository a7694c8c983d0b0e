(* End-to-end back end demo: refine a FIR, then generate synthesizable
   VHDL from the refined signal-flow graph — the design environment's
   "code generator enables translation ... to synthesizable VHDL" (§2).

   The generated entity lands in ./fir_refined.vhd; the program also
   prints it so the structure is visible: one signed vector per signal
   (annotated with its <n,f,tc> format), shifts for binary-point
   alignment, a clocked process for the delay line, and the sat()
   function where the refinement decided saturation mode.  The FIR is
   the catalogue's low-pass (lib/designs/fir.ml), the one the quickstart
   refines. *)

open Fixrefine

let () =
  (* 1. refine the simulated FIR, input quantized <8,6,tc> *)
  let d = Designs.Fir.lowpass () in
  let env = d.Designs.Design.env in
  let result =
    Refine.Flow.refine ~sqnr_signal:d.Designs.Design.probe
      (Designs.Design.flow d)
  in
  Format.printf "refined %d signals in %d runs@."
    (List.length result.Refine.Flow.types)
    result.Refine.Flow.simulation_runs;

  (* 2. the same FIR as a flowgraph, formats taken from the refinement *)
  let x = Sim.Env.find_exn env "x" and out = Sim.Env.find_exn env "out" in
  let x_dtype = Option.get (Sim.Signal.dtype x) in
  let g = Sfg.Graph.create () in
  let _x_node, y_node =
    Dsp.Fir.to_sfg g ~coefs:Designs.Fir.lowpass_coefs
      ~input_range:(-1.2, 1.2)
  in
  Sfg.Graph.mark_output g "out" y_node;
  (* graph node names match the simulation's signal names (d[i], c[i],
     v[i]); map the flow's types onto them, defaulting to the input
     format *)
  let formats =
    Vhdl.Of_sfg.formats_of_types
      ~default:(Fixpt.Dtype.fmt x_dtype)
      (result.Refine.Flow.types @ [ ("x", x_dtype) ])
  in
  let saturating name =
    List.exists
      (fun (d : Refine.Decision.msb) ->
        String.equal d.Refine.Decision.signal name
        && Fixpt.Overflow_mode.is_saturating d.Refine.Decision.mode)
      result.Refine.Flow.msb_decisions
  in
  let entity =
    Vhdl.Of_sfg.entity ~saturating ~name:"fir_refined" ~formats g
  in
  let text = Vhdl.Emit.entity entity in
  Vhdl.Emit.write_file entity "fir_refined.vhd";
  print_string text;
  Format.printf "@.wrote fir_refined.vhd (%d bytes)@." (String.length text);

  (* 2b. self-checking testbench with golden vectors from the refined
     simulation, from reset as the entity starts — run it under
     GHDL/ModelSim against fir_refined.vhd *)
  d.Designs.Design.reset ();
  let vectors =
    Vhdl.Testbench.capture ~formats
      ~inputs:[ ("x", fun () -> Sim.Signal.peek_fx x) ]
      ~outputs:[ ("out", fun () -> Sim.Signal.peek_fx out) ]
      32
      (fun i ->
        ignore (d.Designs.Design.step i);
        Sim.Env.tick env)
  in
  let tb = Vhdl.Testbench.emit ~latency:0 ~dut:entity ~formats vectors in
  let oc = open_out "fir_refined_tb.vhd" in
  output_string oc tb;
  close_out oc;
  Format.printf "wrote fir_refined_tb.vhd (%d bytes, %d golden vectors)@."
    (String.length tb) (List.length vectors);

  (* 3. quick structural self-check *)
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  assert (String.length text > 500);
  assert
    (List.for_all
       (fun needle -> contains needle text)
       [ "entity fir_refined"; "architecture rtl"; "rising_edge" ])
