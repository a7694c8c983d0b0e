let conformance_iters = 10

let conformance () =
  let iters = conformance_iters and n = 400 in
  let rng = Stats.Rng.create ~seed:3101 in
  let stimulus =
    Array.init n (fun _ ->
        let x = Stats.Rng.uniform rng ~lo:(-0.55) ~hi:0.55 in
        let y = Stats.Rng.uniform rng ~lo:(-0.55) ~hi:0.55 in
        let z = Stats.Rng.uniform rng ~lo:(-1.2) ~hi:1.2 in
        (x, y, z))
  in
  let env = Sim.Env.create ~seed:31 () in
  let cor = Dsp.Cordic.create env ~iters () in
  let dtype =
    Fixpt.Dtype.make "T_stage" ~n:12 ~f:10
      ~overflow:Fixpt.Overflow_mode.Saturate ()
  in
  List.iter (fun s -> Sim.Signal.set_dtype s dtype) (Dsp.Cordic.signals cor);
  let x_out, _, _ = Dsp.Cordic.stage_signals cor iters in
  let x_in, _, z_in = Dsp.Cordic.stage_signals cor 0 in
  Design.make env ~probe:(Sim.Signal.name x_out) ~cycles:n
    ~step:(fun c ->
      let x, y, z = stimulus.(c) in
      ignore
        (Dsp.Cordic.rotate cor ~x:(Sim.Value.of_float x)
           ~y:(Sim.Value.of_float y) ~z:(Sim.Value.of_float z));
      true)
    ~watch:[ x_in; z_in; x_out ] ()

let rotator ~n ~seed () =
  let env = Sim.Env.create ~seed:31 () in
  let rng = Stats.Rng.create ~seed in
  let iters = 12 in
  let cor = Dsp.Cordic.create env ~iters () in
  let in_dtype = Fixpt.Dtype.make "T_in" ~n:12 ~f:10 () in
  let xin = Sim.Signal.create env ~dtype:in_dtype "xin" in
  let yin = Sim.Signal.create env ~dtype:in_dtype "yin" in
  let zin = Sim.Signal.create env ~dtype:in_dtype "zin" in
  Sim.Signal.range xin (-1.0) 1.0;
  Sim.Signal.range yin (-1.0) 1.0;
  Sim.Signal.range zin (-1.6) 1.6;
  (* every run replays the same vectors *)
  let local = ref (Stats.Rng.copy rng) in
  Design.make env
    ~probe:(Printf.sprintf "cor_x[%d]" iters)
    ~cycles:n
    ~step:(fun _ ->
      let open Sim.Ops in
      let phi = Stats.Rng.uniform !local ~lo:0.0 ~hi:6.28318 in
      xin <-- Sim.Value.of_float (cos phi);
      yin <-- Sim.Value.of_float (sin phi);
      zin <-- Sim.Value.of_float (Stats.Rng.uniform !local ~lo:(-1.5) ~hi:1.5);
      ignore (Dsp.Cordic.rotate cor ~x:!!xin ~y:!!yin ~z:!!zin);
      true)
    ~rewind:(fun () -> local := Stats.Rng.copy rng)
    cor
