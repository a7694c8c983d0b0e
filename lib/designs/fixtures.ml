let fir_testbench_vectors () =
  let env = Sim.Env.create () in
  let dt =
    Fixpt.Dtype.make "T_tb" ~n:10 ~f:8
      ~overflow:Fixpt.Overflow_mode.Saturate ()
  in
  let x = Sim.Signal.create env ~dtype:dt "x" in
  Sim.Signal.range x (-1.0) 1.0;
  let fir =
    Dsp.Fir.create env ~coef_dtype:dt ~delay_dtype:dt ~acc_dtype:dt
      ~coefs:Fir.conformance_coefs ()
  in
  let out = Sim.Signal.create env ~dtype:dt "out" in
  let rng = Stats.Rng.create ~seed:97 in
  let step () =
    let open Sim.Ops in
    x <-- Sim.Value.of_float (Stats.Rng.uniform rng ~lo:(-0.9) ~hi:0.9);
    out <-- Dsp.Fir.step fir !!x;
    Sim.Env.tick env
  in
  let fmt = Fixpt.Dtype.fmt dt in
  Vhdl.Testbench.capture
    ~formats:(fun _ -> fmt)
    ~inputs:[ ("x", fun () -> Sim.Signal.peek_fx x) ]
    ~outputs:[ ("y", fun () -> Sim.Signal.peek_fx out) ]
    16
    (fun _ -> step ())

let sync_loop_graph () =
  let env = Sim.Env.create () in
  let dec = Sim.Signal.create env "dec" in
  Sim.Signal.range dec (-1.0) 1.0;
  let ydot = Sim.Signal.create env "ydot" in
  Sim.Signal.range ydot (-4.0) 4.0;
  let ml = Dsp.Ml_ted.create env () in
  let lf = Dsp.Loop_filter.create env ~kp:0.015625 ~ki:0.00048828125 () in
  let step () =
    let open Sim.Ops in
    dec <-- Sim.Value.of_float 1.0;
    ydot <-- Sim.Value.of_float 0.5;
    let e = Dsp.Ml_ted.detect ml ~y:!!dec ~ydot:!!ydot in
    ignore (Dsp.Loop_filter.step lf e)
  in
  Sim.Extract.graph env ~outputs:[ "lf_lferr" ] ~step ()
