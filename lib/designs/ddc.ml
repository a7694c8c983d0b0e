let rate = 8
let order = 2

let conformance () =
  let n = 1200 in
  let rng = Stats.Rng.create ~seed:1301 in
  let stimulus =
    Array.init n (fun _ -> Stats.Rng.uniform rng ~lo:(-0.9) ~hi:0.9)
  in
  let env = Sim.Env.create ~seed:13 () in
  let x_dtype =
    Fixpt.Dtype.make "T_if" ~n:10 ~f:8 ~overflow:Fixpt.Overflow_mode.Saturate
      ()
  in
  let x = Sim.Signal.create env ~dtype:x_dtype "x" in
  Sim.Signal.range x (-1.0) 1.0;
  let ddc = Dsp.Ddc.create env ~fcw:0.21 ~rate ~order () in
  let i_out, q_out = Dsp.Ddc.outputs ddc in
  Design.make env ~probe:(Sim.Signal.name i_out) ~cycles:n
    ~step:(fun c ->
      let open Sim.Ops in
      x <-- Sim.Value.of_float stimulus.(c);
      Option.is_some (Dsp.Ddc.step ddc !!x))
    ~watch:[ Dsp.Ddc.phase ddc; i_out; q_out ]
    ()

let frontend () =
  let n = 3000 and fcw = 0.15625 in
  let rng = Stats.Rng.create ~seed:31 in
  let stimulus =
    Array.init n (fun k ->
        (0.7 *. cos (2.0 *. Float.pi *. fcw *. Float.of_int k))
        +. (0.05 *. Stats.Rng.uniform rng ~lo:(-1.0) ~hi:1.0))
  in
  let env = Sim.Env.create ~seed:7 () in
  let x_dtype = Fixpt.Dtype.make "T_if" ~n:10 ~f:8 () in
  let x = Sim.Signal.create env ~dtype:x_dtype "x" in
  Sim.Signal.range x (-1.0) 1.0;
  let ddc = Dsp.Ddc.create env ~fcw ~rate:4 ~order () in
  (* knowledge-based bound on the control state *)
  Sim.Signal.range (Dsp.Ddc.phase ddc) 0.0 1.0;
  (* the CIC integrators wrap by design at the Hogenauer width
     (N·log2 R + B_in bits): modular arithmetic makes the decimated comb
     output exact anyway *)
  let cic_dtype =
    Fixpt.Dtype.make "T_cic" ~n:14 ~f:8 ~overflow:Fixpt.Overflow_mode.Wrap
      ~round:Fixpt.Round_mode.Floor ()
  in
  List.iter
    (fun s ->
      let name = Sim.Signal.name s in
      if
        String.length name > 7
        && List.mem (String.sub name 0 7) [ "ddc_ci_"; "ddc_cq_" ]
      then Sim.Signal.set_dtype s cic_dtype)
    (Sim.Env.signals env);
  let i_out, _ = Dsp.Ddc.outputs ddc in
  Design.make env ~probe:(Sim.Signal.name i_out) ~cycles:n
    ~step:(fun c ->
      let open Sim.Ops in
      x <-- Sim.Value.of_float stimulus.(c);
      Option.is_some (Dsp.Ddc.step ddc !!x))
    ()
