(* End-to-end integration tests: complete refinement journeys through
   the public API, asserting the paper-level outcomes (not just module
   contracts). *)

open Fixrefine
open Sim.Ops

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* --- journey 1: equalizer — float spec to working fixed-point design -- *)

let test_equalizer_full_journey () =
  let n = 4000 in
  let env = Sim.Env.create ~seed:11 () in
  let rng = Stats.Rng.create ~seed:2024 in
  let stimulus, sent = Dsp.Channel_model.isi_awgn ~rng ~n_symbols:n () in
  let input = Sim.Channel.of_fun "rx" stimulus in
  let output = Sim.Channel.create ~record:true "y" in
  let x_dtype = Fixpt.Dtype.make "T_input" ~n:7 ~f:5 () in
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
      run = (fun () -> Dsp.Lms_equalizer.run eq ~cycles:n);
    }
  in
  let r = Refine.Flow.refine ~sqnr_signal:"v[3]" design in
  (* paper's headline numbers *)
  check int_t "2 MSB iterations" 2 r.Refine.Flow.msb_iterations;
  check int_t "1 LSB iteration" 1 r.Refine.Flow.lsb_iterations;
  check int_t "3 monitored runs" 3 r.Refine.Flow.simulation_runs;
  (* all datapath signals typed, formats sane *)
  List.iter
    (fun (name, dt) ->
      check bool_t (name ^ " wordlength sane") true
        (Fixpt.Dtype.n dt >= 2 && Fixpt.Dtype.n dt <= 32))
    (List.filter (fun (n, _) -> String.length n < 3) r.Refine.Flow.types);
  (* the refined design still works *)
  let decided = Array.of_list (Sim.Channel.recorded output) in
  check (Alcotest.float 0.005) "SER" 0.0
    (Dsp.Pam.best_ser ~skip:200 ~sent ~decided ());
  (* no unexpected overflows on error-typed signals in verification *)
  List.iter
    (fun s ->
      match Sim.Signal.dtype s with
      | Some dt
        when Fixpt.Overflow_mode.equal (Fixpt.Dtype.overflow dt)
               Fixpt.Overflow_mode.Error ->
          check int_t
            (Sim.Signal.name s ^ " no overflow")
            0 (Sim.Signal.overflows s)
      | _ -> ())
    (Sim.Env.signals env)

(* --- journey 2: refine, auto-extract, generate VHDL ------------------- *)

let test_refine_extract_vhdl_journey () =
  let n = 1500 in
  let env = Sim.Env.create ~seed:3 () in
  let rng = Stats.Rng.create ~seed:12 in
  let stimulus, _ = Dsp.Channel_model.isi_awgn ~rng ~n_symbols:n () in
  let input = Sim.Channel.of_fun "in" stimulus in
  let x_dtype = Fixpt.Dtype.make "T" ~n:8 ~f:6 () in
  let x = Sim.Signal.create env ~dtype:x_dtype "x" in
  Sim.Signal.range x (-1.2) 1.2;
  let fir = Dsp.Fir.create env ~coefs:[| 0.25; 0.5; 0.25 |] () in
  let out = Sim.Signal.create env "out" in
  let step () =
    x <-- Sim.Value.of_float (Sim.Channel.get input);
    out <-- Dsp.Fir.step fir !!x
  in
  let design =
    {
      Refine.Flow.env;
      reset =
        (fun () ->
          Sim.Env.reset env;
          Sim.Channel.clear input);
      run = (fun () -> Sim.Engine.run env ~cycles:n (fun _ -> step ()));
    }
  in
  let r = Refine.Flow.refine ~sqnr_signal:"out" design in
  (* auto-extract the (now fully typed) design and emit VHDL *)
  let g = Sim.Extract.graph env ~outputs:[ "out" ] ~step () in
  let formats =
    Vhdl.Of_sfg.formats_of_types ~default:(Fixpt.Dtype.fmt x_dtype)
      r.Refine.Flow.types
  in
  let text =
    Vhdl.Emit.entity (Vhdl.Of_sfg.entity ~name:"fir_auto" ~formats g)
  in
  check bool_t "entity" true (contains "entity fir_auto" text);
  check bool_t "registers" true (contains "rising_edge" text);
  check bool_t "quantizers from types" true (contains "resize" text);
  check bool_t "output port" true (contains "o_out" text)

(* --- journey 3: feedback design through extraction + VHDL -------------- *)

let test_equalizer_extract_vhdl () =
  let env = Sim.Env.create ~seed:11 () in
  let rng = Stats.Rng.create ~seed:7 in
  let stimulus, _ = Dsp.Channel_model.isi_awgn ~rng ~n_symbols:300 () in
  let input = Sim.Channel.of_fun "rx" stimulus in
  let output = Sim.Channel.create "y" in
  let eq = Dsp.Lms_equalizer.create env ~input ~output () in
  Sim.Signal.range (Dsp.Lms_equalizer.x eq) (-1.5) 1.5;
  Sim.Signal.range (Dsp.Lms_equalizer.b eq) (-0.2) 0.2;
  Dsp.Lms_equalizer.run eq ~cycles:100;
  let g =
    Sim.Extract.graph env ~outputs:[ "y" ]
      ~step:(fun () -> Dsp.Lms_equalizer.step eq)
      ()
  in
  (* select + delays + saturation survive the VHDL mapping *)
  let text =
    Vhdl.Emit.entity
      (Vhdl.Of_sfg.entity ~name:"equalizer"
         ~formats:(Vhdl.Of_sfg.uniform_formats ~n:12 ~f:8)
         g)
  in
  check bool_t "conditional (slicer)" true (contains "when" text);
  check bool_t "saturation (range)" true (contains "sat(" text);
  check bool_t "feedback registers" true (contains "rising_edge" text)

(* --- journey 4: limit cycles (§4.2's caveat) --------------------------- *)

let test_limit_cycle_detected_by_final_verification () =
  (* a resonant biquad quantized with round-off sustains a limit cycle
     after the input stops: the fixed-point output keeps moving while
     the float reference decays — the §4.2 effect ("limit cycles") that
     makes final verification of feedback paths mandatory.  Floor
     (magnitude-truncating here) suppresses it. *)
  let run round =
    let dt =
      Fixpt.Dtype.make "T" ~n:8 ~f:6 ~round
        ~overflow:Fixpt.Overflow_mode.Saturate ()
    in
    let env = Sim.Env.create () in
    let bq = Dsp.Biquad.create env (Dsp.Biquad.resonator ~r:0.99 ~theta:0.3) in
    List.iter (fun s -> Sim.Signal.set_dtype s dt) (Dsp.Biquad.signals bq);
    let late_err = Stats.Running.create () in
    Sim.Engine.run env ~cycles:600 (fun c ->
        let x = if c < 50 then (if c mod 2 = 0 then 0.9 else -0.9) else 0.0 in
        let out = Dsp.Biquad.step bq (cst x) in
        if c > 400 then
          Stats.Running.add late_err
            (Float.abs (Sim.Value.fx out -. Sim.Value.fl out)));
    (Stats.Running.max_abs late_err, Fixpt.Dtype.step dt)
  in
  let round_err, step = run Fixpt.Round_mode.Round in
  let floor_err, _ = run Fixpt.Round_mode.Floor in
  check bool_t "round-off sustains a limit cycle" true (round_err > 2.0 *. step);
  check bool_t "floor decays below one step" true (floor_err < step)

(* --- journey 5: multi-processor system through channels ---------------- *)

let test_two_processor_pipeline () =
  (* producer processor drives a FIR processor through a channel — the
     §2 "several communicating processors" structure *)
  let env = Sim.Env.create () in
  let link = Sim.Channel.create "link" in
  let sink = Sim.Channel.create ~record:true "sink" in
  let rng = Stats.Rng.create ~seed:41 in
  let src = Sim.Signal.create env "src" in
  let fir = Dsp.Fir.create env ~coefs:[| 0.5; 0.5 |] () in
  let eng = Sim.Engine.create env in
  Sim.Engine.add eng
    (Sim.Engine.processor "source" (fun _ ->
         src <-- Sim.Value.of_float (Stats.Rng.pam2 rng);
         Sim.Channel.put link (Sim.Signal.peek_fx src)));
  Sim.Engine.add eng
    (Sim.Engine.processor "filter" (fun _ ->
         let v = Sim.Value.of_float (Sim.Channel.get link) in
         let out = Dsp.Fir.step fir v in
         Sim.Channel.put sink (Sim.Value.fx out)));
  Sim.Engine.run_processors eng ~cycles:100;
  let outs = Array.of_list (Sim.Channel.recorded sink) in
  check int_t "100 outputs" 100 (Array.length outs);
  (* after the 2-cycle pipeline fill, outputs of a ±1 stream through
     [0.5; 0.5] live in {-1, 0, 1} *)
  Array.iteri
    (fun i v ->
      if i >= 2 then
        check bool_t "levels" true (v = 0.0 || v = 1.0 || v = -1.0))
    outs

(* --- journey 6: VCD trace of a refinement session ---------------------- *)

let test_vcd_session () =
  let env = Sim.Env.create () in
  let x = Sim.Signal.create env "x" in
  (* a 4-tap moving average: its output is the last accumulator v[4] *)
  let fir = Dsp.Fir.create env ~prefix:"ma_" ~coefs:(Array.make 4 0.25) () in
  let y = Sim.Sig_array.get (Dsp.Fir.accumulators fir) 4 in
  let vcd = Sim.Vcd.create () in
  Sim.Vcd.probe vcd x;
  Sim.Vcd.probe vcd y;
  Sim.Vcd.start vcd;
  Sim.Engine.run env ~cycles:20 (fun c ->
      x <-- Sim.Value.of_float (sin (Float.of_int c /. 3.0));
      ignore (Dsp.Fir.step fir !!x);
      Sim.Vcd.sample vcd ~time:c);
  let text = Sim.Vcd.contents vcd in
  check bool_t "all timestamps present" true
    (List.for_all
       (fun c -> contains (Printf.sprintf "#%d\n" c) text)
       (List.init 20 Fun.id));
  check bool_t "both probes declared" true
    (contains " x $end" text && contains " ma_v_4_ $end" text)

let suite =
  ( "integration",
    [
      Alcotest.test_case "equalizer full journey" `Slow
        test_equalizer_full_journey;
      Alcotest.test_case "refine→extract→VHDL" `Quick
        test_refine_extract_vhdl_journey;
      Alcotest.test_case "equalizer extract→VHDL" `Quick
        test_equalizer_extract_vhdl;
      Alcotest.test_case "limit cycle verification" `Quick
        test_limit_cycle_detected_by_final_verification;
      Alcotest.test_case "two-processor pipeline" `Quick
        test_two_processor_pipeline;
      Alcotest.test_case "vcd session" `Quick test_vcd_session;
    ] )
