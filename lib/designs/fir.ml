let conformance_coefs = [| 0.25; 0.5; 0.25 |]
let lowpass_coefs = [| 0.1; 0.25; 0.3; 0.25; 0.1 |]

(* [x] (typed [x_dtype], annotated ±[range]) into the filter, whose sum
   lands in [out] when [with_out]; cycle [c] feeds [sample c]. *)
let build ~seed ~coefs ?x_dtype ?delay_dtype ?acc_dtype ~range ~with_out
    ~probe ~cycles ~sample ?rewind () =
  let env = Sim.Env.create ~seed () in
  let x = Sim.Signal.create env ?dtype:x_dtype "x" in
  Sim.Signal.range x (-.range) range;
  let fir = Dsp.Fir.create env ?delay_dtype ?acc_dtype ~coefs () in
  let out = if with_out then Some (Sim.Signal.create env "out") else None in
  let step c =
    let open Sim.Ops in
    x <-- Sim.Value.of_float (sample c);
    let y = Dsp.Fir.step fir !!x in
    (match out with Some o -> o <-- y | None -> ());
    true
  in
  Design.make env ~probe ~cycles ~step ?rewind
    ~watch:[ x; Sim.Env.find_exn env probe ]
    ()

let conformance () =
  let n = 600 in
  let rng = Stats.Rng.create ~seed:701 in
  let stimulus =
    Array.init n (fun _ -> Stats.Rng.uniform rng ~lo:(-1.5) ~hi:1.5)
  in
  let sat = Fixpt.Overflow_mode.Saturate in
  let x_dtype = Fixpt.Dtype.make "T_in" ~n:8 ~f:6 ~overflow:sat () in
  build ~seed:7 ~coefs:conformance_coefs ~x_dtype ~delay_dtype:x_dtype
    ~acc_dtype:(Fixpt.Dtype.make "T_acc" ~n:14 ~f:10 ~overflow:sat ())
    ~range:1.5 ~with_out:false ~probe:"v[3]" ~cycles:n
    ~sample:(Array.get stimulus) ()

let lowpass () =
  let n = 3000 in
  let rng = Stats.Rng.create ~seed:12 in
  let stimulus, _ = Dsp.Channel_model.isi_awgn ~rng ~n_symbols:n () in
  let input = Sim.Channel.of_fun "in" stimulus in
  build ~seed:3 ~coefs:lowpass_coefs
    ~x_dtype:(Fixpt.Dtype.make "T" ~n:8 ~f:6 ())
    ~range:1.2 ~with_out:true ~probe:"out" ~cycles:n
    ~sample:(fun _ -> Sim.Channel.get input)
    ~rewind:(fun () -> Sim.Channel.clear input)
    ()

(* int_bits budgets: x ∈ ±1.2 needs 2 bits (sign + one integer bit);
   the accumulator chain peaks at Σ|c|·max|x| = 1.0·1.2 so 3 bits keep
   saturation marginal rather than catastrophic. *)
let sweep_specs =
  (("x", 2) :: List.init 5 (fun i -> (Printf.sprintf "d[%d]" i, 2)))
  @ List.init 5 (fun i -> (Printf.sprintf "v[%d]" (i + 1), 3))
  @ [ ("out", 3) ]

(* the stimulus stream of seed [s] *)
let stream_seed s = 12 + (7919 * s)

let sweep ?(n = 512) () =
  let rng = Stats.Rng.create ~seed:12 in
  (* consumed by [reset]: each candidate's stimulus stream is a pure
     function of its stim_seed *)
  let cur_seed = ref 0 in
  let d =
    build ~seed:3 ~coefs:lowpass_coefs ~range:1.2 ~with_out:true
      ~probe:"out" ~cycles:n
      ~sample:(fun _ -> Stats.Rng.uniform_sym rng 1.0)
      ~rewind:(fun () -> Stats.Rng.reseed rng ~seed:(stream_seed !cur_seed))
      ()
  in
  let compiled =
    {
      Refine.Eval.extract = (fun () -> Design.extract ~outputs:[ "out" ] d);
      cycles = n;
      stimulus =
        (fun ~seeds ->
          (* draw [step] of each lane's stream [reset] reseeds, read
             directly: bit-identical to what the clock-true run feeds
             [x], in any access order and with no buffer *)
          let seeds = Array.map stream_seed seeds in
          fun name ->
            if String.equal name "x_in" then
              Stats.Rng.fill_uniform_sym_at ~seeds 1.0
            else fun _step dst off ->
              Array.fill dst off (Array.length seeds) 0.0);
    }
  in
  {
    d with
    parts =
      { Design.set_seed = (fun s -> cur_seed := s); compiled = Some compiled };
  }
