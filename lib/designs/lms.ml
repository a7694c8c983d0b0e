type parts = {
  eq : Dsp.Lms_equalizer.t;
  sent : float array;
  output : Sim.Channel.t;
}

let make ?steered ?noise_sigma ?x_dtype ?(seed = 2024) ~n_symbols ~cycles () =
  let env = Sim.Env.create ~seed:11 () in
  let rng = Stats.Rng.create ~seed in
  let stimulus, sent =
    Dsp.Channel_model.isi_awgn ?noise_sigma ~rng ~n_symbols ()
  in
  let input = Sim.Channel.of_fun "rx" stimulus in
  let output = Sim.Channel.create ~record:true "decisions" in
  let eq =
    Dsp.Lms_equalizer.create env ?steered ?x_dtype ~input ~output ()
  in
  Sim.Signal.range (Dsp.Lms_equalizer.x eq) (-1.5) 1.5;
  Design.make env ~probe:"w" ~cycles
    ~step:(fun _ ->
      Dsp.Lms_equalizer.step eq;
      true)
    ~rewind:(fun () ->
      Sim.Channel.clear input;
      Sim.Channel.clear output)
    ~watch:
      Dsp.Lms_equalizer.[ x eq; w eq; b eq; y eq ]
    { eq; sent; output }

let build ?steered ?noise_sigma ?(n_symbols = 4000) ?seed () =
  let x_dtype =
    Fixpt.Dtype.make "T_input" ~n:7 ~f:5
      ~overflow:Fixpt.Overflow_mode.Saturate ()
  in
  make ?steered ?noise_sigma ~x_dtype ~n_symbols ?seed ~cycles:n_symbols ()

let extracted () =
  let d = make ~n_symbols:200 ~cycles:100 () in
  Sim.Signal.range (Dsp.Lms_equalizer.b d.Design.parts.eq) (-0.2) 0.2;
  d.Design.run ();
  Design.extract ~outputs:[ "y"; "w" ] d
