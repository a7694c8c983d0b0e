(* Shared workload builders for the reproduction experiments.

   Each builder returns a fresh, fully deterministic Flow.design (plus
   whatever probes the experiment needs), so every experiment starts
   from the same state. *)

open Fixrefine

(* --- the motivational example (Fig. 1, Tables 1-2) -------------------- *)

type equalizer = {
  design : Refine.Flow.design;
  eq : Dsp.Lms_equalizer.t;
  sent : float array;
  output : Sim.Channel.t;
}

let equalizer ?(steered = true) ?(noise_sigma = 0.02) () =
  let n = 4000 in
  let env = Sim.Env.create ~seed:11 () in
  let rng = Stats.Rng.create ~seed:2024 in
  let stimulus, sent =
    Dsp.Channel_model.isi_awgn ~noise_sigma ~rng ~n_symbols:n ()
  in
  let input = Sim.Channel.of_fun "rx" stimulus in
  let output = Sim.Channel.create ~record:true "decisions" in
  let x_dtype = Fixpt.Dtype.make "T_input" ~n:7 ~f:5 () in
  let eq =
    Dsp.Lms_equalizer.create env ~steered ~x_dtype ~input ~output ()
  in
  Sim.Signal.range (Dsp.Lms_equalizer.x eq) (-1.5) 1.5;
  let design =
    {
      Refine.Flow.env;
      reset =
        (fun () ->
          Sim.Env.reset env;
          Sim.Channel.clear input;
          Sim.Channel.clear output);
      run = (fun () -> Dsp.Lms_equalizer.run eq ~cycles:n);
    }
  in
  { design; eq; sent; output }

(* --- the complex example (Fig. 5, §6.1) -------------------------------- *)

type timing = {
  t_design : Refine.Flow.design;
  tr : Dsp.Timing_recovery.t;
  t_sent : float array;
  t_output : Sim.Channel.t;
}

let timing ?(n_symbols = 4000) ?(noise_sigma = 0.01)
    ?(knowledge_ranges = true) ?(input_bits = (10, 8)) ?kp ?ki () =
  let env = Sim.Env.create ~seed:5 () in
  let rng = Stats.Rng.create ~seed:99 in
  let stimulus, sent, n_samples =
    Dsp.Channel_model.timing_offset_pam ~rng ~n_symbols ~tau:0.3 ~noise_sigma ()
  in
  let input = Sim.Channel.of_fun "rx" stimulus in
  let output = Sim.Channel.create ~record:true "symbols" in
  let n, f = input_bits in
  let x_dtype =
    Fixpt.Dtype.make "T_input" ~n ~f ~overflow:Fixpt.Overflow_mode.Saturate ()
  in
  let tr = Dsp.Timing_recovery.create env ?kp ?ki ~x_dtype ~input ~output () in
  Sim.Signal.range (Dsp.Timing_recovery.input_signal tr) (-1.6) 1.6;
  if knowledge_ranges then begin
    (* the paper's 5 knowledge-based saturation choices *)
    Sim.Signal.range (Dsp.Nco.mu (Dsp.Timing_recovery.nco tr)) 0.0 1.0;
    Sim.Signal.range (Sim.Env.find_exn env "lf_lferr") (-0.25) 0.25;
    Sim.Signal.range (Sim.Env.find_exn env "ted_err") (-4.0) 4.0;
    Sim.Signal.range (Sim.Env.find_exn env "ip_out") (-2.0) 2.0;
    Sim.Signal.range (Sim.Env.find_exn env "out") (-2.0) 2.0
  end;
  let t_design =
    {
      Refine.Flow.env;
      reset =
        (fun () ->
          Sim.Env.reset env;
          Sim.Channel.clear input;
          Sim.Channel.clear output);
      run = (fun () -> Dsp.Timing_recovery.run tr ~samples:n_samples);
    }
  in
  { t_design; tr; t_sent = sent; t_output = output }

(* --- a loop-free FIR (quickstart-scale workload) ------------------------ *)

let fir_coefs = [| 0.1; 0.25; 0.3; 0.25; 0.1 |]

let fir () =
  let n = 3000 in
  let env = Sim.Env.create ~seed:3 () in
  let rng = Stats.Rng.create ~seed:12 in
  let stimulus, _ = Dsp.Channel_model.isi_awgn ~rng ~n_symbols:n () in
  let input = Sim.Channel.of_fun "in" stimulus in
  let x_dtype = Fixpt.Dtype.make "T" ~n:8 ~f:6 () in
  let x = Sim.Signal.create env ~dtype:x_dtype "x" in
  Sim.Signal.range x (-1.2) 1.2;
  let f = Dsp.Fir.create env ~coefs:fir_coefs () in
  let out = Sim.Signal.create env "out" in
  {
    Refine.Flow.env;
    reset =
      (fun () ->
        Sim.Env.reset env;
        Sim.Channel.clear input);
    run =
      (fun () ->
        Sim.Engine.run env ~cycles:n (fun _ ->
            let open Sim.Ops in
            x <-- Sim.Value.of_float (Sim.Channel.get input);
            out <-- Dsp.Fir.step f !!x));
  }

(* --- SER scoring --------------------------------------------------------- *)

let ser ?(skip = 300) ~sent output =
  let decided = Array.of_list (Sim.Channel.recorded output) in
  Dsp.Pam.best_ser ~skip ~sent ~decided ()
