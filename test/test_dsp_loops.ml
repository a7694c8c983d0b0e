(* Unit tests: the timing-recovery components (Interpolator,
   Gardner_ted, Loop_filter, Nco) and the assembled loops
   (Lms_equalizer, and the Fig. 5 loop as
   Synchronizer ~ted:Gardner ~m:2 ~sps:2). *)

open Fixrefine
open Sim.Ops

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let float_t eps = Alcotest.float eps

(* --- Interpolator ------------------------------------------------------ *)

let test_interpolator_at_grid_points () =
  (* mu = 0 reproduces x[2]; mu = 1 reproduces x[1] *)
  let x = [| 4.0; 3.0; 2.0; 1.0 |] in
  check (float_t 1e-12) "mu=0" 2.0 (Dsp.Interpolator.reference x 0.0);
  check (float_t 1e-12) "mu=1" 3.0 (Dsp.Interpolator.reference x 1.0)

let test_interpolator_cubic_exact () =
  (* cubic Lagrange is exact on cubics: f(t) = t^3 - t sampled at
     t = -1, 0, 1, 2 (x[3]..x[0]) *)
  let f t = (t ** 3.0) -. t in
  let x = [| f 2.0; f 1.0; f 0.0; f (-1.0) |] in
  List.iter
    (fun mu ->
      check (float_t 1e-9)
        (Printf.sprintf "mu=%g" mu)
        (f mu)
        (Dsp.Interpolator.reference x mu))
    [ 0.1; 0.25; 0.5; 0.75; 0.9 ]

let test_interpolator_sim_matches_reference () =
  let env = Sim.Env.create () in
  let ip = Dsp.Interpolator.create env () in
  (* shift in 1, 2, 3, 4: delay line x[0]=4 newest .. x[3]=1 oldest *)
  List.iter
    (fun v ->
      Dsp.Interpolator.shift ip (cst v);
      Sim.Env.tick env)
    [ 1.0; 2.0; 3.0; 4.0 ];
  let out = Dsp.Interpolator.interpolate ip (cst 0.5) in
  check (float_t 1e-12) "matches reference"
    (Dsp.Interpolator.reference [| 4.0; 3.0; 2.0; 1.0 |] 0.5)
    (Sim.Value.fx out)

let test_interpolator_signal_count () =
  let env = Sim.Env.create () in
  let ip = Dsp.Interpolator.create env () in
  check int_t "12 signals" 12 (List.length (Dsp.Interpolator.signals ip))

(* --- Gardner_ted -------------------------------------------------------- *)

let test_ted_reference_sign () =
  (* sampling late on a +1/-1 transition: mid sample nonzero with the
     sign of the timing error *)
  let late = Dsp.Gardner_ted.reference ~current:(-1.0) ~previous:1.0 ~mid:0.2 in
  let early = Dsp.Gardner_ted.reference ~current:(-1.0) ~previous:1.0 ~mid:(-0.2) in
  check bool_t "opposite signs" true (late *. early < 0.0)

let test_ted_no_transition_no_error () =
  check (float_t 1e-12) "flat" 0.0
    (Dsp.Gardner_ted.reference ~current:1.0 ~previous:1.0 ~mid:0.3)

let test_ted_sim_pipeline () =
  let env = Sim.Env.create () in
  let ted = Dsp.Gardner_ted.create env () in
  (* strobe 1 *)
  Dsp.Gardner_ted.capture_mid ted (cst 0.1);
  Sim.Env.tick env;
  let e = Dsp.Gardner_ted.detect ted (cst 1.0) in
  Sim.Env.tick env;
  (* prev was 0 (init), mid = 0.1: err = (1 - 0)·0.1 *)
  check (float_t 1e-12) "first err" 0.1 (Sim.Value.fx e);
  Dsp.Gardner_ted.capture_mid ted (cst (-0.2));
  Sim.Env.tick env;
  let e2 = Dsp.Gardner_ted.detect ted (cst (-1.0)) in
  check (float_t 1e-12) "second err" ((-1.0 -. 1.0) *. -0.2) (Sim.Value.fx e2)

(* --- Loop_filter -------------------------------------------------------- *)

let test_loop_filter_reference () =
  let errs = [| 1.0; 1.0; -1.0 |] in
  let out = Dsp.Loop_filter.reference ~kp:0.5 ~ki:0.1 errs in
  check (float_t 1e-12) "t0" 0.6 out.(0);
  check (float_t 1e-12) "t1" 0.7 out.(1);
  check (float_t 1e-12) "t2" (-0.4) out.(2)

let test_loop_filter_sim_matches () =
  let env = Sim.Env.create () in
  let lf = Dsp.Loop_filter.create env ~kp:0.5 ~ki:0.1 () in
  let errs = [| 1.0; 1.0; -1.0; 0.5 |] in
  let expected = Dsp.Loop_filter.reference ~kp:0.5 ~ki:0.1 errs in
  Array.iteri
    (fun i e ->
      let out = Dsp.Loop_filter.step lf (cst e) in
      Sim.Env.tick env;
      check (float_t 1e-12) (Printf.sprintf "t%d" i) expected.(i)
        (Sim.Value.fx out))
    errs

let test_loop_filter_hold () =
  let env = Sim.Env.create () in
  let lf = Dsp.Loop_filter.create env ~kp:0.5 ~ki:0.1 () in
  ignore (Dsp.Loop_filter.step lf (cst 1.0));
  Sim.Env.tick env;
  let held = Dsp.Loop_filter.hold lf in
  check (float_t 1e-12) "held output" 0.6 (Sim.Value.fx held)

let test_loop_filter_design () =
  let kp, ki = Dsp.Loop_filter.design ~bn:0.01 () in
  check bool_t "kp positive" true (kp > 0.0);
  check bool_t "ki << kp" true (ki < kp /. 10.0);
  let kp2, _ = Dsp.Loop_filter.design ~bn:0.05 () in
  check bool_t "wider bn -> larger gain" true (kp2 > kp)

let test_loop_filter_integrator_is_accumulator () =
  (* §5.1 case (b): the integrator's propagated range dwarfs its
     statistic range *)
  let env = Sim.Env.create () in
  let lf = Dsp.Loop_filter.create env ~kp:0.1 ~ki:0.05 () in
  let rng = Stats.Rng.create ~seed:3 in
  Sim.Engine.run env ~cycles:3000 (fun _ ->
      ignore
        (Dsp.Loop_filter.step lf
           (Sim.Value.with_range
              (cst (Stats.Rng.uniform rng ~lo:(-1.0) ~hi:1.0))
              (Interval.make (-1.0) 1.0))));
  let d = Refine.Msb_rules.decide (Dsp.Loop_filter.integrator lf) in
  check bool_t "case (b)" true
    (d.Refine.Decision.case = Refine.Decision.Prop_pessimistic)

(* --- Nco ----------------------------------------------------------------- *)

let test_nco_reference_strobe_rate () =
  let lferrs = Array.make 1000 0.0 in
  let out = Dsp.Nco.reference ~sps:2 lferrs in
  let strobes = Array.fold_left (fun n (s, _) -> if s then n + 1 else n) 0 out in
  check int_t "one strobe per 2 samples" 500 strobes

let test_nco_reference_mu_constant_offset () =
  (* with lferr = 0, mu is constant cycle to cycle *)
  let out = Dsp.Nco.reference ~sps:2 (Array.make 100 0.0) in
  let mus =
    Array.to_list out |> List.filter_map (fun (s, m) -> if s then Some m else None)
  in
  match mus with
  | m0 :: rest ->
      List.iter (fun m -> check (float_t 1e-9) "constant mu" m0 m) rest
  | [] -> Alcotest.fail "no strobes"

let test_nco_control_word_clamped () =
  (* a huge lferr cannot stall or run away the NCO *)
  let out = Dsp.Nco.reference ~sps:2 (Array.make 100 (-10.0)) in
  let strobes = Array.fold_left (fun n (s, _) -> if s then n + 1 else n) 0 out in
  check bool_t "still strobing" true (strobes >= 20);
  let out2 = Dsp.Nco.reference ~sps:2 (Array.make 100 10.0) in
  let strobes2 = Array.fold_left (fun n (s, _) -> if s then n + 1 else n) 0 out2 in
  check bool_t "not every sample x2" true (strobes2 <= 80)

let test_nco_sim_matches_reference () =
  let env = Sim.Env.create () in
  let nco = Dsp.Nco.create env ~sps:2 () in
  let lferrs = [| 0.0; 0.05; -0.03; 0.0; 0.02; 0.0; 0.0; -0.01 |] in
  let expected = Dsp.Nco.reference ~sps:2 lferrs in
  Array.iteri
    (fun i lferr ->
      let strobed, mu = Dsp.Nco.step nco (cst lferr) in
      Sim.Env.tick env;
      let es, em = expected.(i) in
      check bool_t (Printf.sprintf "strobe %d" i) es strobed;
      check (float_t 1e-12) (Printf.sprintf "mu %d" i) em (Sim.Value.fx mu))
    lferrs

let test_nco_mu_in_unit_interval () =
  let env = Sim.Env.create ~seed:2 () in
  let nco = Dsp.Nco.create env ~sps:2 () in
  let rng = Stats.Rng.create ~seed:71 in
  Sim.Engine.run env ~cycles:2000 (fun _ ->
      let _, mu = Dsp.Nco.step nco (cst (Stats.Rng.uniform rng ~lo:(-0.1) ~hi:0.1)) in
      let m = Sim.Value.fx mu in
      check bool_t "mu in [0,1]" true (m >= 0.0 && m <= 1.0))

(* --- Lms_equalizer ------------------------------------------------------ *)

let run_equalizer ?(n = 3000) ?(x_dtype : Fixpt.Dtype.t option) () =
  let env = Sim.Env.create ~seed:11 () in
  let rng = Stats.Rng.create ~seed:2024 in
  let stimulus, sent = Dsp.Channel_model.isi_awgn ~rng ~n_symbols:n () in
  let input = Sim.Channel.of_fun "rx" stimulus in
  let output = Sim.Channel.create ~record:true "y" in
  let eq = Dsp.Lms_equalizer.create env ?x_dtype ~input ~output () in
  Sim.Signal.range (Dsp.Lms_equalizer.x eq) (-1.5) 1.5;
  Dsp.Lms_equalizer.run eq ~cycles:n;
  (env, eq, sent, output)

let test_equalizer_float_converges () =
  let _, eq, sent, output = run_equalizer () in
  let decided = Array.of_list (Sim.Channel.recorded output) in
  check (float_t 0.01) "SER ~ 0" 0.0
    (Dsp.Pam.best_ser ~skip:200 ~sent ~decided ());
  (* the adapted feedback coefficient stays small *)
  check bool_t "b bounded" true
    (Float.abs (Sim.Signal.peek_fx (Dsp.Lms_equalizer.b eq)) < 0.5)

let test_equalizer_feedback_explodes () =
  let env, _, _, _ = run_equalizer () in
  let exploded =
    List.map Sim.Signal.name (Refine.Msb_rules.exploded_signals env)
  in
  check bool_t "w and b explode" true
    (List.mem "w" exploded && List.mem "b" exploded);
  check bool_t "fir does not" true (not (List.mem "v[3]" exploded))

let test_equalizer_table_signals () =
  let _, eq, _, _ = run_equalizer ~n:10 () in
  let names = List.map Sim.Signal.name (Dsp.Lms_equalizer.table_signals eq) in
  check bool_t "paper's table order" true
    (names
    = [ "c[0]"; "c[1]"; "c[2]"; "x"; "d[0]"; "d[1]"; "d[2]"; "v[1]"; "v[2]";
        "v[3]"; "w"; "b"; "y" ])

let test_equalizer_quantized_input_errors_propagate () =
  let x_dtype = Fixpt.Dtype.make "T" ~n:7 ~f:5 () in
  let env, _, _, _ = run_equalizer ~x_dtype () in
  let v3 = Sim.Env.find_exn env "v[3]" in
  let e = Stats.Err_stats.produced (Sim.Signal.err_stats v3) in
  check bool_t "errors reached the FIR output" true
    (Stats.Running.stddev e > 1e-4)

let test_equalizer_sfg_structure () =
  let g = Designs.Design.extract (Designs.Lms.build ~n_symbols:10 ()) in
  check bool_t "valid" true (Result.is_ok (Sfg.Graph.validate g));
  let r = Sfg.Range_analysis.run g in
  check bool_t "unannotated b explodes analytically" true
    (List.mem "b" r.Sfg.Range_analysis.exploded);
  let g2 = Designs.Lms.extracted () in
  let r2 = Sfg.Range_analysis.run g2 in
  check bool_t "b.range fixes it" true (r2.Sfg.Range_analysis.exploded = [])

(* --- the Fig. 5 timing-recovery loop ------------------------------------- *)

let run_timing ?(n_symbols = 2000) ?(tau = 0.3) ?x_dtype () =
  let env = Sim.Env.create ~seed:5 () in
  let rng = Stats.Rng.create ~seed:99 in
  let stimulus, sent, n_samples =
    Dsp.Channel_model.timing_offset_pam ~rng ~n_symbols ~tau ()
  in
  let input = Sim.Channel.of_fun "rx" stimulus in
  let output = Sim.Channel.create ~record:true "sym" in
  let tr =
    Dsp.Synchronizer.create env ~ted:Dsp.Synchronizer.Gardner ~m:2 ~sps:2
      ?x_dtype ~input ~output ()
  in
  Dsp.Synchronizer.run tr ~samples:n_samples;
  (env, tr, sent, output)

let test_timing_loop_locks () =
  let _, tr, sent, output = run_timing () in
  let decided = Array.of_list (Sim.Channel.recorded output) in
  check bool_t "symbol-rate output" true
    (Array.length decided > 1900 && Array.length decided < 2100);
  check (float_t 0.02) "SER after lock" 0.0
    (Dsp.Pam.best_ser ~skip:500 ~sent ~decided ());
  check int_t "one strobe per symbol (±1%)" 1
    (if
       Dsp.Synchronizer.strobes tr > 1980
       && Dsp.Synchronizer.strobes tr < 2020
     then 1
     else 0)

let test_timing_locks_across_offsets () =
  List.iter
    (fun tau ->
      let _, _, sent, output = run_timing ~tau () in
      let decided = Array.of_list (Sim.Channel.recorded output) in
      check (float_t 0.02)
        (Printf.sprintf "SER at tau=%g" tau)
        0.0
        (Dsp.Pam.best_ser ~skip:500 ~sent ~decided ()))
    [ 0.0; 0.15; 0.3; 0.45 ]

let test_timing_accumulators_flagged () =
  let env, tr, _, _ = run_timing () in
  ignore env;
  let integ = Dsp.Loop_filter.integrator (Dsp.Synchronizer.loop_filter tr) in
  let eta = Dsp.Nco.phase (Dsp.Synchronizer.nco tr) in
  let d_integ = Refine.Msb_rules.decide integ in
  let d_eta = Refine.Msb_rules.decide eta in
  check bool_t "integrator saturated" true
    (d_integ.Refine.Decision.case = Refine.Decision.Prop_pessimistic);
  check bool_t "phase saturated" true
    (d_eta.Refine.Decision.case = Refine.Decision.Prop_pessimistic)

let test_timing_quantized_still_locks () =
  let x_dtype = Fixpt.Dtype.make "T" ~n:10 ~f:8 () in
  let _, _, sent, output = run_timing ~x_dtype () in
  let decided = Array.of_list (Sim.Channel.recorded output) in
  check (float_t 0.02) "SER with quantized input" 0.0
    (Dsp.Pam.best_ser ~skip:500 ~sent ~decided ())

let suite =
  ( "dsp-loops",
    [
      Alcotest.test_case "interp grid points" `Quick
        test_interpolator_at_grid_points;
      Alcotest.test_case "interp cubic exact" `Quick
        test_interpolator_cubic_exact;
      Alcotest.test_case "interp sim vs reference" `Quick
        test_interpolator_sim_matches_reference;
      Alcotest.test_case "interp signal count" `Quick
        test_interpolator_signal_count;
      Alcotest.test_case "ted sign" `Quick test_ted_reference_sign;
      Alcotest.test_case "ted flat" `Quick test_ted_no_transition_no_error;
      Alcotest.test_case "ted pipeline" `Quick test_ted_sim_pipeline;
      Alcotest.test_case "loop filter reference" `Quick
        test_loop_filter_reference;
      Alcotest.test_case "loop filter sim" `Quick test_loop_filter_sim_matches;
      Alcotest.test_case "loop filter hold" `Quick test_loop_filter_hold;
      Alcotest.test_case "loop filter design" `Quick test_loop_filter_design;
      Alcotest.test_case "loop integrator case (b)" `Quick
        test_loop_filter_integrator_is_accumulator;
      Alcotest.test_case "nco strobe rate" `Quick
        test_nco_reference_strobe_rate;
      Alcotest.test_case "nco constant mu" `Quick
        test_nco_reference_mu_constant_offset;
      Alcotest.test_case "nco clamp" `Quick test_nco_control_word_clamped;
      Alcotest.test_case "nco sim vs reference" `Quick
        test_nco_sim_matches_reference;
      Alcotest.test_case "nco mu in [0,1]" `Quick test_nco_mu_in_unit_interval;
      Alcotest.test_case "equalizer converges" `Quick
        test_equalizer_float_converges;
      Alcotest.test_case "equalizer feedback explodes" `Quick
        test_equalizer_feedback_explodes;
      Alcotest.test_case "equalizer table signals" `Quick
        test_equalizer_table_signals;
      Alcotest.test_case "equalizer error propagation" `Quick
        test_equalizer_quantized_input_errors_propagate;
      Alcotest.test_case "equalizer sfg" `Quick test_equalizer_sfg_structure;
      Alcotest.test_case "timing loop locks" `Quick test_timing_loop_locks;
      Alcotest.test_case "timing locks across offsets" `Quick
        test_timing_locks_across_offsets;
      Alcotest.test_case "timing accumulators flagged" `Quick
        test_timing_accumulators_flagged;
      Alcotest.test_case "timing quantized locks" `Quick
        test_timing_quantized_still_locks;
    ] )
