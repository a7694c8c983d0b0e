(* Unit tests: Dsp blocks — Fir, Biquad, Cordic, Slicer, Pam,
   Channel_model, and a recursive moving average built in this file.
   Each block's simulated (dual fixed/float) behaviour is cross-checked
   against its pure float reference. *)

open Fixrefine
open Sim.Ops

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let float_t eps = Alcotest.float eps

(* --- Fir --------------------------------------------------------------- *)

let test_fir_impulse_response () =
  (* the registered delay line (the paper's regarray) gives the block
     one cycle of latency: h appears at t = 1.. *)
  let env = Sim.Env.create () in
  let coefs = [| 0.5; -0.25; 0.125 |] in
  let fir = Dsp.Fir.create env ~coefs () in
  let outs = ref [] in
  Sim.Engine.run env ~cycles:5 (fun i ->
      let x = if i = 0 then 1.0 else 0.0 in
      outs := Sim.Value.fx (Dsp.Fir.step fir (cst x)) :: !outs);
  let outs = Array.of_list (List.rev !outs) in
  check (float_t 1e-12) "latency cycle" 0.0 outs.(0);
  Array.iteri
    (fun i c ->
      check (float_t 1e-12) (Printf.sprintf "h[%d]" i) c outs.(i + 1))
    coefs;
  check (float_t 1e-12) "tail zero" 0.0 outs.(4)

let test_fir_matches_reference () =
  let env = Sim.Env.create () in
  let coefs = [| 0.1; 0.4; -0.2; 0.3 |] in
  let fir = Dsp.Fir.create env ~coefs () in
  let rng = Stats.Rng.create ~seed:8 in
  let input = Array.init 50 (fun _ -> Stats.Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
  let expected = Dsp.Fir.reference ~coefs input in
  let i = ref 0 in
  Sim.Engine.run env ~cycles:50 (fun _ ->
      let out = Dsp.Fir.step fir (cst input.(!i)) in
      (* one-cycle register latency: out(t) = reference(t-1) *)
      if !i > 0 then
        check (float_t 1e-12)
          (Printf.sprintf "sample %d" !i)
          expected.(!i - 1) (Sim.Value.fx out);
      incr i)

let test_fir_worst_case_gain () =
  check (float_t 1e-12) "sum |c|" 0.85
    (Dsp.Fir.worst_case_gain [| 0.5; -0.25; 0.1 |])

let test_fir_sfg_range_matches_gain () =
  (* the low-pass's input is annotated x.range(-1.2, 1.2) *)
  let g = Designs.Design.extract (Designs.Fir.lowpass ()) in
  let r = Sfg.Range_analysis.run g in
  match Sfg.Range_analysis.range_of r "v[5]" with
  | Some iv ->
      check (float_t 1e-9) "worst case bound"
        (Dsp.Fir.worst_case_gain Designs.Fir.lowpass_coefs *. 1.2)
        (Interval.hi iv)
  | None -> Alcotest.fail "no range"

let test_fir_sfg_simulation_agree () =
  (* the extracted graph, fed the design's own input samples, computes
     the design's typed accumulator bit for bit, with the same one-cycle
     latency (d[0] is a delay) *)
  let cycles = 60 in
  let d = Designs.Fir.conformance () in
  let g = Designs.Design.extract d in
  d.Designs.Design.reset ();
  let x = Sim.Env.find_exn d.Designs.Design.env "x" in
  let v3 = Sim.Env.find_exn d.Designs.Design.env "v[3]" in
  let xs = Array.make cycles 0.0 and ys = Array.make cycles 0.0 in
  Sim.Engine.run d.Designs.Design.env ~cycles (fun c ->
      ignore (d.Designs.Design.step c);
      xs.(c) <- Sim.Signal.peek_fx x;
      ys.(c) <- Sim.Signal.peek_fx v3);
  let traces =
    Sfg.Graph.simulate g ~steps:cycles ~inputs:(fun name i ->
        if String.equal name "x_in" then xs.(i) else 0.0)
  in
  Array.iteri
    (fun i v -> check (float_t 0.0) (Printf.sprintf "t%d" i) ys.(i) v)
    (List.assoc "v[3]" traces)

(* --- Biquad ------------------------------------------------------------ *)

let test_biquad_matches_reference () =
  let env = Sim.Env.create () in
  let coeffs = Dsp.Biquad.resonator ~r:0.9 ~theta:0.8 in
  let bq = Dsp.Biquad.create env coeffs in
  let rng = Stats.Rng.create ~seed:14 in
  let input = Array.init 100 (fun _ -> Stats.Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
  let expected = Dsp.Biquad.reference coeffs input in
  let i = ref 0 in
  Sim.Engine.run env ~cycles:100 (fun _ ->
      let out = Dsp.Biquad.step bq (cst input.(!i)) in
      check (float_t 1e-9)
        (Printf.sprintf "sample %d" !i)
        expected.(!i) (Sim.Value.fx out);
      incr i)

let test_biquad_resonator_dc_gain () =
  let c = Dsp.Biquad.resonator ~r:0.5 ~theta:1.0 in
  let input = Array.make 2000 1.0 in
  let out = Dsp.Biquad.reference c input in
  check (float_t 1e-6) "unity DC gain" 1.0 out.(1999)

let test_biquad_l1_gain_grows_with_r () =
  let g r = Dsp.Biquad.l1_gain (Dsp.Biquad.resonator ~r ~theta:0.8) in
  check bool_t "sharper pole larger gain" true (g 0.95 > g 0.5)

let test_biquad_sfg_explodes_near_instability () =
  (* r = 0.99: interval analysis cannot see pole damping; must explode *)
  let g = Sfg.Graph.create () in
  let c = Dsp.Biquad.resonator ~r:0.99 ~theta:0.3 in
  let _ = Dsp.Biquad.to_sfg ~input_range:(-1.0, 1.0) c g in
  let r = Sfg.Range_analysis.run g in
  check bool_t "feedback explodes" true (r.Sfg.Range_analysis.exploded <> [])

let test_biquad_sfg_bounded_with_annotation () =
  let g = Sfg.Graph.create () in
  let c = Dsp.Biquad.resonator ~r:0.5 ~theta:1.2 in
  let bound = Dsp.Biquad.l1_gain c in
  let _ =
    Dsp.Biquad.to_sfg ~input_range:(-1.0, 1.0) ~y_range:(-.bound, bound) c g
  in
  let r = Sfg.Range_analysis.run g in
  check bool_t "no explosion" true (r.Sfg.Range_analysis.exploded = [])

(* --- Moving average ------------------------------------------------------ *)

(* the recursive boxcar y_n = y_{n-1} + (x_n - x_{n-N})/N, built here
   from Sim signals: its running accumulator is the paper's §5.1 case
   (b) accumulation variable *)
module Moving_average = struct
  type t = {
    n : int;
    line : Sim.Sig_array.t;
    diff : Sim.Signal.t;
    acc : Sim.Signal.t;
    out : Sim.Signal.t;
  }

  let create env ~n () =
    {
      n;
      line = Sim.Sig_array.create_reg env "ma_z" n;
      diff = Sim.Signal.create env "ma_diff";
      acc = Sim.Signal.create_reg env "ma_acc";
      out = Sim.Signal.create env "ma_y";
    }

  let accumulator t = t.acc

  let step t x =
    t.diff <-- x -: !!(Sim.Sig_array.get t.line (t.n - 1));
    for i = t.n - 1 downto 1 do
      Sim.Sig_array.get t.line i <-- !!(Sim.Sig_array.get t.line (i - 1))
    done;
    Sim.Sig_array.get t.line 0 <-- x;
    t.acc <-- !!(t.acc) +: !!(t.diff);
    (* the register read is the pre-update sum: add the fresh increment *)
    t.out <-- (!!(t.acc) +: !!(t.diff)) /: cst (Float.of_int t.n);
    !!(t.out)

  let reference ~n input =
    Array.mapi
      (fun i _ ->
        let acc = ref 0.0 in
        for j = max 0 (i - n + 1) to i do
          acc := !acc +. input.(j)
        done;
        !acc /. Float.of_int n)
      input
end

let test_moving_average_reference () =
  let n = 4 in
  let rng = Stats.Rng.create ~seed:55 in
  let input = Array.init 40 (fun _ -> Stats.Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
  let expected = Moving_average.reference ~n input in
  let env = Sim.Env.create () in
  let ma = Moving_average.create env ~n () in
  let i = ref 0 in
  Sim.Engine.run env ~cycles:40 (fun _ ->
      let out = Moving_average.step ma (cst input.(!i)) in
      check (float_t 1e-9)
        (Printf.sprintf "t%d" !i)
        expected.(!i) (Sim.Value.fx out);
      incr i)

let test_moving_average_accumulator_flagged () =
  (* the recursive accumulator's propagated range must dwarf its
     statistic range — the §5.1 case-(b) pattern *)
  let env = Sim.Env.create () in
  let ma = Moving_average.create env ~n:4 () in
  let rng = Stats.Rng.create ~seed:6 in
  Sim.Engine.run env ~cycles:2000 (fun _ ->
      ignore
        (Moving_average.step ma
           (cst (Stats.Rng.uniform rng ~lo:(-1.0) ~hi:1.0))));
  let acc = Moving_average.accumulator ma in
  let d = Refine.Msb_rules.decide acc in
  check bool_t "saturation recommended" true
    (d.Refine.Decision.case = Refine.Decision.Prop_pessimistic)

(* --- Cordic ------------------------------------------------------------ *)

let test_cordic_gain () =
  check (float_t 1e-3) "K ~ 1.6468" 1.6468 (Dsp.Cordic.gain 12)

let test_cordic_rotation_accuracy () =
  let env = Sim.Env.create () in
  let iters = 16 in
  let c = Dsp.Cordic.create env ~iters () in
  List.iter
    (fun (x, y, z) ->
      let xo, yo = Dsp.Cordic.rotate c ~x:(cst x) ~y:(cst y) ~z:(cst z) in
      let xr, yr = Dsp.Cordic.reference ~iters ~x ~y ~z in
      check (float_t 1e-3) "x" xr (Sim.Value.fx xo);
      check (float_t 1e-3) "y" yr (Sim.Value.fx yo);
      Sim.Env.tick env)
    [ (1.0, 0.0, 0.5); (0.7, -0.7, -1.2); (0.0, 1.0, 1.5); (0.5, 0.5, 0.0) ]

let test_cordic_angle_error_bound () =
  check bool_t "bound decreases" true
    (Dsp.Cordic.angle_error_bound 16 < Dsp.Cordic.angle_error_bound 8)

let test_cordic_bad_iters () =
  let env = Sim.Env.create () in
  check bool_t "rejects 0" true
    (try
       ignore (Dsp.Cordic.create env ~iters:0 ());
       false
     with Invalid_argument _ -> true)

(* --- Slicer / Pam ------------------------------------------------------ *)

let test_slicer_decisions () =
  let env = Sim.Env.create () in
  let s = Dsp.Slicer.create env "y" in
  check (float_t 0.0) "positive" 1.0
    (Sim.Value.fx (Dsp.Slicer.step s (cst 0.3)));
  check (float_t 0.0) "negative" (-1.0)
    (Sim.Value.fx (Dsp.Slicer.step s (cst (-0.001))))

let test_slicer_steered_by_fixed () =
  let env = Sim.Env.create () in
  let s = Dsp.Slicer.create env "y" in
  (* fx positive, fl negative: the decision (and both outputs) follow fx *)
  let v = Sim.Value.with_range (Sim.Value.with_fl (Sim.Value.const 0.2) (-0.2))
      (Interval.make (-0.2) 0.2) in
  let out = Dsp.Slicer.step s v in
  check (float_t 0.0) "fx decision" 1.0 (Sim.Value.fx out);
  check (float_t 0.0) "fl follows control" 1.0 (Sim.Value.fl out)

let test_pam_decide_levels () =
  check (float_t 1e-12) "snap to 1/3" (1.0 /. 3.0)
    (Dsp.Slicer.decide_pam ~m:4 0.4);
  check (float_t 1e-12) "snap to -1" (-1.0) (Dsp.Slicer.decide_pam ~m:4 (-0.95))

let test_raised_cosine_nyquist () =
  check (float_t 1e-9) "p(0)=1" 1.0 (Dsp.Pam.raised_cosine ~beta:0.35 0.0);
  List.iter
    (fun k ->
      check (float_t 1e-9)
        (Printf.sprintf "p(%d)=0" k)
        0.0
        (Dsp.Pam.raised_cosine ~beta:0.35 (Float.of_int k)))
    [ 1; 2; 3; -1; -2 ]

let test_raised_cosine_singularity () =
  (* t = 1/(2β) is the removable singularity *)
  let beta = 0.35 in
  let v = Dsp.Pam.raised_cosine ~beta (1.0 /. (2.0 *. beta)) in
  check bool_t "finite" true (Float.is_finite v)

let test_waveform_reconstructs_symbols () =
  let rng = Stats.Rng.create ~seed:21 in
  let syms = Dsp.Pam.symbols rng 64 in
  (* at integer symbol times the Nyquist pulse reproduces the symbol *)
  for k = 8 to 56 do
    check (float_t 1e-6)
      (Printf.sprintf "s(%d)" k)
      syms.(k)
      (Dsp.Pam.waveform_sample ~beta:0.35 syms (Float.of_int k))
  done

let test_symbol_errors_lag () =
  let sent = [| 1.0; -1.0; 1.0; 1.0; -1.0; 1.0 |] in
  let decided = [| 0.0; 1.0; -1.0; 1.0; 1.0; -1.0 |] in
  (* decided is sent delayed by 1 *)
  let e, t = Dsp.Pam.symbol_errors ~skip:1 ~lag:(-1) ~sent ~decided () in
  check int_t "no errors at lag -1" 0 e;
  check bool_t "counted" true (t > 0);
  check (float_t 1e-9) "best_ser finds it" 0.0
    (Dsp.Pam.best_ser ~skip:1 ~sent ~decided ())

(* --- Channel_model ----------------------------------------------------- *)

let test_isi_awgn_deterministic () =
  let mk () =
    let rng = Stats.Rng.create ~seed:33 in
    Dsp.Channel_model.isi_awgn ~rng ~n_symbols:100 ()
  in
  let s1, sent1 = mk () and s2, sent2 = mk () in
  check bool_t "same symbols" true (sent1 = sent2);
  for i = 0 to 99 do
    check (float_t 0.0) "same samples" (s1 i) (s2 i)
  done

let test_isi_awgn_peak_bounded () =
  let rng = Stats.Rng.create ~seed:34 in
  let s, _ =
    Dsp.Channel_model.isi_awgn ~taps:[| 0.15; 0.8; 0.12 |] ~noise_sigma:0.02
      ~rng ~n_symbols:2000 ()
  in
  let peak = Dsp.Channel_model.peak s ~n:2000 in
  check bool_t "within 1.5" true (peak < 1.5);
  check bool_t "nontrivial" true (peak > 0.5)

let test_timing_offset_pam_shape () =
  let rng = Stats.Rng.create ~seed:35 in
  let s, sent, n = Dsp.Channel_model.timing_offset_pam ~rng ~n_symbols:100 () in
  check int_t "2 samples per symbol" 200 n;
  check int_t "symbols" 100 (Array.length sent);
  check bool_t "bounded" true (Dsp.Channel_model.peak s ~n < 2.0)

let suite =
  ( "dsp-blocks",
    [
      Alcotest.test_case "fir impulse" `Quick test_fir_impulse_response;
      Alcotest.test_case "fir vs reference" `Quick test_fir_matches_reference;
      Alcotest.test_case "fir worst-case gain" `Quick
        test_fir_worst_case_gain;
      Alcotest.test_case "fir sfg range" `Quick
        test_fir_sfg_range_matches_gain;
      Alcotest.test_case "fir sfg simulation" `Quick
        test_fir_sfg_simulation_agree;
      Alcotest.test_case "biquad vs reference" `Quick
        test_biquad_matches_reference;
      Alcotest.test_case "biquad dc gain" `Quick test_biquad_resonator_dc_gain;
      Alcotest.test_case "biquad l1 gain" `Quick
        test_biquad_l1_gain_grows_with_r;
      Alcotest.test_case "biquad sfg explodes" `Quick
        test_biquad_sfg_explodes_near_instability;
      Alcotest.test_case "biquad sfg bounded" `Quick
        test_biquad_sfg_bounded_with_annotation;
      Alcotest.test_case "moving average reference" `Quick
        test_moving_average_reference;
      Alcotest.test_case "moving average accumulator" `Quick
        test_moving_average_accumulator_flagged;
      Alcotest.test_case "cordic gain" `Quick test_cordic_gain;
      Alcotest.test_case "cordic accuracy" `Quick
        test_cordic_rotation_accuracy;
      Alcotest.test_case "cordic angle bound" `Quick
        test_cordic_angle_error_bound;
      Alcotest.test_case "cordic bad iters" `Quick test_cordic_bad_iters;
      Alcotest.test_case "slicer decisions" `Quick test_slicer_decisions;
      Alcotest.test_case "slicer steered by fixed" `Quick
        test_slicer_steered_by_fixed;
      Alcotest.test_case "pam decide levels" `Quick test_pam_decide_levels;
      Alcotest.test_case "raised cosine nyquist" `Quick
        test_raised_cosine_nyquist;
      Alcotest.test_case "raised cosine singularity" `Quick
        test_raised_cosine_singularity;
      Alcotest.test_case "waveform reconstructs" `Quick
        test_waveform_reconstructs_symbols;
      Alcotest.test_case "symbol errors lag" `Quick test_symbol_errors_lag;
      Alcotest.test_case "isi awgn deterministic" `Quick
        test_isi_awgn_deterministic;
      Alcotest.test_case "isi awgn peak" `Quick test_isi_awgn_peak_bounded;
      Alcotest.test_case "timing offset pam" `Quick
        test_timing_offset_pam_shape;
    ] )
