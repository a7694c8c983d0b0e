type parts = { fft : Dsp.Fft.t; stimulus : float array }

let build ~scale =
  let n = 16 and transforms = 150 in
  let env = Sim.Env.create ~seed:17 () in
  let rng = Stats.Rng.create ~seed:23 in
  (* uniform amplitudes (not ±1): exactly-representable inputs would
     enter the transform noiselessly and defeat the LSB analysis *)
  let stimulus =
    Array.init (transforms * n) (fun _ ->
        Stats.Rng.uniform rng ~lo:(-1.0) ~hi:1.0)
  in
  let xr =
    Sim.Sig_array.create env ~dtype:(Fixpt.Dtype.make "T_in" ~n:10 ~f:8 ())
      "xr" n
  in
  Sim.Sig_array.range xr (-1.0) 1.0;
  let fft = Dsp.Fft.create env ~scale ~n () in
  Design.make env
    ~probe:(Printf.sprintf "fft_re%d[0]" (Dsp.Fft.stage_count fft))
    ~cycles:transforms
    ~step:(fun c ->
      let open Sim.Ops in
      let input =
        Array.init n (fun i ->
            let s = Sim.Sig_array.get xr i in
            s <-- Sim.Value.of_float stimulus.((c * n) + i);
            (!!s, cst 0.0))
      in
      ignore (Dsp.Fft.transform fft input);
      true)
    { fft; stimulus }
