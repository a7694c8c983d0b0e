(* Cross-validation and edge-case coverage that doesn't fit a single
   module suite. *)

open Fixrefine
open Sim.Ops

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let float_t eps = Alcotest.float eps

(* --- the big cross-check: float-based simulation == bit-true int64 ----- *)

let test_sim_matches_bit_true_fir () =
  (* a fully quantized FIR simulated with the float-based environment
     must agree bit-for-bit with the same filter computed in exact
     scaled-int64 arithmetic *)
  let coef_dt = Fixpt.Dtype.make "C" ~n:10 ~f:8 () in
  let data_dt =
    Fixpt.Dtype.make "D" ~n:12 ~f:8 ~overflow:Fixpt.Overflow_mode.Saturate ()
  in
  let coefs = [| 0.1015625; 0.25; 0.30078125; 0.25; 0.1015625 |] in
  let rng = Stats.Rng.create ~seed:77 in
  let samples =
    Array.init 200 (fun _ ->
        Fixpt.Quantize.cast data_dt (Stats.Rng.uniform rng ~lo:(-1.5) ~hi:1.5))
  in
  (* 1: simulation-environment run *)
  let env = Sim.Env.create () in
  let fir =
    Dsp.Fir.create env ~coef_dtype:coef_dt ~delay_dtype:data_dt
      ~acc_dtype:data_dt ~coefs ()
  in
  let sim_out = Array.make 200 0.0 in
  let i = ref 0 in
  Sim.Engine.run env ~cycles:200 (fun _ ->
      sim_out.(!i) <- Sim.Value.fx (Dsp.Fir.step fir (cst samples.(!i)));
      incr i);
  (* 2: bit-true recomputation with Fixed (mirroring Fir.step's
     structure: registered delay line, accumulate then resize into the
     accumulator type at every v[i] assignment) *)
  let fx v = fst (Fixpt.Fixed.of_float data_dt v) in
  let cfix = Array.map (fun c -> fst (Fixpt.Fixed.of_float coef_dt c)) coefs in
  let line = Array.make 5 (Fixpt.Fixed.zero (Fixpt.Dtype.fmt data_dt)) in
  let bit_out = Array.make 200 0.0 in
  for t = 0 to 199 do
    (* v chain on the *pre-shift* delay line (regs read old values) *)
    let acc = ref (Fixpt.Fixed.zero (Fixpt.Dtype.fmt data_dt)) in
    for j = 0 to 4 do
      let product = Fixpt.Fixed.mul line.(j) cfix.(j) in
      let wide = Fixpt.Fixed.add !acc product in
      acc := fst (Fixpt.Fixed.resize data_dt wide)
    done;
    bit_out.(t) <- Fixpt.Fixed.to_float !acc;
    (* shift after compute, like the registered semantics *)
    for j = 4 downto 1 do
      line.(j) <- line.(j - 1)
    done;
    line.(0) <- fx samples.(t)
  done;
  Array.iteri
    (fun t v ->
      check (float_t 0.0) (Printf.sprintf "bit-exact t=%d" t) bit_out.(t) v)
    sim_out

(* --- misc edges --------------------------------------------------------- *)

let test_env_overflow_exception_fields () =
  let env = Sim.Env.create ~policy:Sim.Env.Raise () in
  let dt =
    Fixpt.Dtype.make "t" ~n:4 ~f:2 ~overflow:Fixpt.Overflow_mode.Error ()
  in
  let s = Sim.Signal.create env ~dtype:dt "boom" in
  (try s <-- cst 7.0 with
  | Sim.Env.Overflow { signal; value; time } ->
      check Alcotest.string "signal" "boom" signal;
      check bool_t "value" true (value > 1.75);
      check int_t "time" 0 time)

let test_dtype_with_msb_lsb () =
  let dt = Fixpt.Dtype.make "t" ~n:8 ~f:6 () in
  let wider = Fixpt.Dtype.with_msb dt 4 in
  check int_t "msb moved" 4 (Fixpt.Dtype.msb_pos wider);
  check int_t "lsb kept" (-6) (Fixpt.Dtype.lsb_pos wider);
  let finer = Fixpt.Dtype.with_lsb dt (-10) in
  check int_t "lsb moved" (-10) (Fixpt.Dtype.lsb_pos finer);
  check int_t "msb kept" 1 (Fixpt.Dtype.msb_pos finer)

let test_dtype_same_behaviour () =
  let a = Fixpt.Dtype.make "a" ~n:8 ~f:6 () in
  let b = Fixpt.Dtype.make "b" ~n:8 ~f:6 () in
  check bool_t "names differ but behaviour same" true
    (Fixpt.Dtype.same_behaviour a b && not (Fixpt.Dtype.equal a b))

let test_engine_run_until_max () =
  let env = Sim.Env.create () in
  let n = Sim.Engine.run_until ~max:10 env (fun _ -> true) in
  check int_t "capped" 10 n

let test_interval_pp_and_value_pp () =
  check Alcotest.string "interval" "[-1, 2]"
    (Interval.to_string (Interval.make (-1.0) 2.0));
  let v = Sim.Value.const 0.5 in
  check bool_t "value pp mentions fx" true
    (let s = Format.asprintf "%a" Sim.Value.pp v in
     String.length s > 0 && String.sub s 0 4 = "{fx=")

let test_channel_empty_exception () =
  let c = Sim.Channel.create "empty_chan" in
  (try ignore (Sim.Channel.get c) with
  | Sim.Channel.Empty name -> check Alcotest.string "name" "empty_chan" name)

let test_flow_determinism () =
  (* same seeds, same decisions — the reproducibility EXPERIMENTS.md
     relies on *)
  let run () =
    let env = Sim.Env.create ~seed:11 () in
    let rng = Stats.Rng.create ~seed:2024 in
    let stimulus, _ = Dsp.Channel_model.isi_awgn ~rng ~n_symbols:1000 () in
    let input = Sim.Channel.of_fun "rx" stimulus in
    let output = Sim.Channel.create "y" in
    let x_dtype = Fixpt.Dtype.make "T" ~n:7 ~f:5 () in
    let eq = Dsp.Lms_equalizer.create env ~x_dtype ~input ~output () in
    Sim.Signal.range (Dsp.Lms_equalizer.x eq) (-1.5) 1.5;
    let design =
      {
        Refine.Flow.env;
        reset =
          (fun () ->
            Sim.Env.reset env;
            Sim.Channel.clear input;
            Sim.Channel.clear output);
        run = (fun () -> Dsp.Lms_equalizer.run eq ~cycles:1000);
      }
    in
    let r = Refine.Flow.refine design in
    List.map (fun (n, dt) -> (n, Fixpt.Dtype.to_string dt)) r.Refine.Flow.types
  in
  check bool_t "identical derived types" true (run () = run ())

let test_qformat_unsigned_negative_rejected () =
  check bool_t "raises" true
    (try
       ignore
         (Fixpt.Qformat.required_msb Fixpt.Sign_mode.Us ~vmin:(-1.0) ~vmax:1.0);
       false
     with Invalid_argument _ -> true)

let test_sqnr_neg_infinity () =
  let t = Stats.Sqnr.create () in
  Stats.Sqnr.add t ~reference:0.0 ~actual:0.5;
  check bool_t "noise without signal" true (Stats.Sqnr.db t = Float.neg_infinity)

let suite =
  ( "misc",
    [
      Alcotest.test_case "sim matches bit-true FIR" `Quick
        test_sim_matches_bit_true_fir;
      Alcotest.test_case "overflow exception fields" `Quick
        test_env_overflow_exception_fields;
      Alcotest.test_case "dtype with_msb/with_lsb" `Quick
        test_dtype_with_msb_lsb;
      Alcotest.test_case "dtype same_behaviour" `Quick
        test_dtype_same_behaviour;
      Alcotest.test_case "run_until max" `Quick test_engine_run_until_max;
      Alcotest.test_case "pp functions" `Quick test_interval_pp_and_value_pp;
      Alcotest.test_case "channel empty" `Quick test_channel_empty_exception;
      Alcotest.test_case "flow determinism" `Slow test_flow_determinism;
      Alcotest.test_case "unsigned negative msb" `Quick
        test_qformat_unsigned_negative_rejected;
      Alcotest.test_case "sqnr -inf" `Quick test_sqnr_neg_infinity;
    ] )
