type parts = {
  sy : Dsp.Synchronizer.t;
  sent : float array;
  output : Sim.Channel.t;
}

let set_knowledge_ranges sy =
  let find = Sim.Env.find_exn (Dsp.Synchronizer.env sy) in
  Sim.Signal.range (Dsp.Nco.mu (Dsp.Synchronizer.nco sy)) 0.0 1.0;
  Sim.Signal.range (find "lf_lferr") (-0.25) 0.25;
  Sim.Signal.range (Dsp.Synchronizer.error_signal sy) (-4.0) 4.0;
  Sim.Signal.range (find "ip_out") (-2.0) 2.0;
  (* the derivative matched filter swings harder than the interpolant *)
  if Dsp.Synchronizer.detector sy = Dsp.Synchronizer.Ml then
    Sim.Signal.range (find "ip_dout") (-4.0) 4.0;
  Sim.Signal.range (Dsp.Synchronizer.output_signal sy) (-2.0) 2.0

let config base = { base with Refine.Flow.auto_error_lsb = -8 }

let input_dtype ~n ~f =
  Fixpt.Dtype.make "T_input" ~n ~f ~overflow:Fixpt.Overflow_mode.Saturate ()

let build ?(n_symbols = 4000) ?(seed = 99) ?(noise_sigma = 0.01)
    ?(knowledge_ranges = true) ?(input_bits = (10, 8)) ?kp ?ki () =
  let env = Sim.Env.create ~seed:5 () in
  let rng = Stats.Rng.create ~seed in
  let stimulus, sent, n_samples =
    Dsp.Channel_model.timing_offset_pam ~rng ~n_symbols ~tau:0.3 ~noise_sigma
      ()
  in
  let input = Sim.Channel.of_fun "rx" stimulus in
  let output = Sim.Channel.create ~record:true "symbols" in
  let n, f = input_bits in
  let sy =
    Dsp.Synchronizer.create env ?kp ?ki ~ted:Dsp.Synchronizer.Gardner ~m:2
      ~sps:2 ~x_dtype:(input_dtype ~n ~f) ~input ~output ()
  in
  Sim.Signal.range (Dsp.Synchronizer.input_signal sy) (-1.6) 1.6;
  if knowledge_ranges then set_knowledge_ranges sy;
  Design.make env ~probe:"out" ~cycles:n_samples
    ~step:(fun _ ->
      Dsp.Synchronizer.step sy;
      true)
    ~rewind:(fun () ->
      Sim.Channel.clear input;
      Sim.Channel.clear output)
    ~watch:
      [ Dsp.Synchronizer.input_signal sy; Dsp.Synchronizer.output_signal sy ]
    { sy; sent; output }
