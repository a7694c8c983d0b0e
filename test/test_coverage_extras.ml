(* Remaining-path coverage: instability suspects, apply_types overwrite,
   extraction of data-dependent branches, file writers, and small
   accessors. *)

open Fixrefine
open Sim.Ops

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let test_instability_suspects () =
  (* an error()-overruled signal whose injected model under-estimates
     the real loop error shows Feedback_gain and is flagged *)
  let env = Sim.Env.create ~seed:3 () in
  let s = Sim.Signal.create env "loop" in
  Sim.Signal.error s 1e-6;
  (* incoming values carry a big consumed error; the injection replaces
     it with a tiny produced one -> ε_p < ε_c *)
  let rng = Stats.Rng.create ~seed:4 in
  for _ = 1 to 500 do
    let v = Stats.Rng.uniform rng ~lo:(-1.0) ~hi:1.0 in
    s <-- Sim.Value.with_fl (cst v) (v +. Stats.Rng.uniform_sym rng 0.1)
  done;
  let suspects = Refine.Lsb_rules.instability_suspects env in
  check bool_t "flagged" true
    (List.exists (fun x -> Sim.Signal.name x = "loop") suspects)

let test_apply_types_overwrite () =
  let env = Sim.Env.create () in
  let dt_old = Fixpt.Dtype.make "old" ~n:8 ~f:6 () in
  let dt_new = Fixpt.Dtype.make "new" ~n:10 ~f:8 () in
  let s = Sim.Signal.create env ~dtype:dt_old "s" in
  Refine.Flow.apply_types env [ ("s", dt_new) ];
  check Alcotest.string "preserved by default" "old"
    (Fixpt.Dtype.name (Option.get (Sim.Signal.dtype s)));
  Refine.Flow.apply_types ~overwrite:true env [ ("s", dt_new) ];
  check Alcotest.string "overwritten on request" "new"
    (Fixpt.Dtype.name (Option.get (Sim.Signal.dtype s)))

let test_extract_select_records_both_branches () =
  (* Ops.select: the extracted graph's range must join both branches,
     even though only one executed during the recorded cycle *)
  let env = Sim.Env.create () in
  let x = Sim.Signal.create env "x" in
  Sim.Signal.range x (-1.0) 1.0;
  let y = Sim.Signal.create env "y" in
  let step () =
    x <-- Sim.Value.of_float 0.9;
    y <-- select (!!x >: cst 0.0) (cst 5.0) (cst (-7.0))
  in
  let _, ranges = Sim.Extract.analyze env ~step () in
  match Sfg.Range_analysis.range_of ranges "y" with
  | Some iv ->
      check bool_t "covers the untaken branch" true (Interval.mem (-7.0) iv);
      check bool_t "covers the taken branch" true (Interval.mem 5.0 iv)
  | None -> Alcotest.fail "y missing"

let test_extract_ocaml_if_freezes_branch () =
  (* the documented limitation: an OCaml-level if records only the taken
     branch *)
  let env = Sim.Env.create () in
  let x = Sim.Signal.create env "x" in
  Sim.Signal.range x (-1.0) 1.0;
  let y = Sim.Signal.create env "y" in
  let step () =
    x <-- Sim.Value.of_float 0.9;
    if !!x >: cst 0.0 then y <-- cst 5.0 else y <-- cst (-7.0)
  in
  let _, ranges = Sim.Extract.analyze env ~step () in
  match Sfg.Range_analysis.range_of ranges "y" with
  | Some iv ->
      check bool_t "only the taken branch" true
        (Interval.mem 5.0 iv && not (Interval.mem (-7.0) iv))
  | None -> Alcotest.fail "y missing"

let test_file_writers () =
  let tmp suffix = Filename.temp_file "fixrefine_test" suffix in
  (* VCD *)
  let env = Sim.Env.create () in
  let s = Sim.Signal.create env "sig" in
  let vcd = Sim.Vcd.create () in
  Sim.Vcd.probe vcd s;
  Sim.Vcd.start vcd;
  s <-- cst 1.0;
  Sim.Vcd.sample vcd ~time:0;
  let vcd_path = tmp ".vcd" in
  Sim.Vcd.write_file vcd vcd_path;
  let read_all p =
    let ic = open_in p in
    let n = in_channel_length ic in
    let b = really_input_string ic n in
    close_in ic;
    b
  in
  check bool_t "vcd file nonempty" true (String.length (read_all vcd_path) > 50);
  Sys.remove vcd_path;
  (* DOT *)
  let g = Sfg.Graph.create () in
  let xn = Sfg.Graph.input g "x" ~lo:0.0 ~hi:1.0 in
  Sfg.Graph.mark_output g "x" xn;
  let dot_path = tmp ".dot" in
  Sfg.Dot.write_file g dot_path ();
  check bool_t "dot file nonempty" true (String.length (read_all dot_path) > 20);
  Sys.remove dot_path;
  (* VHDL *)
  let e =
    Vhdl.Of_sfg.entity ~name:"t" ~formats:(Vhdl.Of_sfg.uniform_formats ~n:8 ~f:4) g
  in
  let vhd_path = tmp ".vhd" in
  Vhdl.Emit.write_file e vhd_path;
  check bool_t "vhd file nonempty" true (String.length (read_all vhd_path) > 100);
  Sys.remove vhd_path

let test_noise_gain_direct () =
  (* unit variance through a 0.5 gain: variance gain 0.25 *)
  let g = Sfg.Graph.create () in
  let x = Sfg.Graph.input g "x" ~lo:(-1.0) ~hi:1.0 in
  let half = Sfg.Graph.const g 0.5 in
  let y = Sfg.Graph.mul g ~name:"y" x half in
  Sfg.Graph.mark_output g "y" y;
  let ranges = Sfg.Range_analysis.run g in
  check (Alcotest.float 1e-9) "gain 0.25" 0.25
    (Sfg.Wordlength.noise_gain g ~ranges ~src:"x" ~out:"y")

let test_engine_env_accessor () =
  let env = Sim.Env.create () in
  let eng = Sim.Engine.create env in
  check bool_t "same env" true (Sim.Engine.env eng == env)

let test_interpolator_accessors () =
  let env = Sim.Env.create () in
  let ip = Dsp.Interpolator.create env () in
  check int_t "4 taps" 4 (Sim.Sig_array.length (Dsp.Interpolator.taps ip));
  check int_t "4 farrow coeffs" 4
    (Sim.Sig_array.length (Dsp.Interpolator.coeffs ip));
  check int_t "3 horner" 3 (Sim.Sig_array.length (Dsp.Interpolator.horner ip))

let test_value_misc () =
  check bool_t "zero" true (Sim.Value.fx Sim.Value.zero = 0.0);
  check bool_t "one" true (Sim.Value.fx Sim.Value.one = 1.0);
  check bool_t "finite" true (Sim.Value.is_finite (Sim.Value.const 1.0));
  check bool_t "infinite detected" false
    (Sim.Value.is_finite (Sim.Value.const Float.infinity))

let test_fixed_compare () =
  let dt = Fixpt.Dtype.make "t" ~n:8 ~f:6 () in
  let a, _ = Fixpt.Fixed.of_float dt 0.5 in
  let b, _ = Fixpt.Fixed.of_float dt 0.75 in
  check bool_t "ordering" true (Fixpt.Fixed.compare_value a b < 0)

let suite =
  ( "coverage-extras",
    [
      Alcotest.test_case "instability suspects" `Quick
        test_instability_suspects;
      Alcotest.test_case "apply_types overwrite" `Quick
        test_apply_types_overwrite;
      Alcotest.test_case "extract select both branches" `Quick
        test_extract_select_records_both_branches;
      Alcotest.test_case "extract if freezes branch" `Quick
        test_extract_ocaml_if_freezes_branch;
      Alcotest.test_case "file writers" `Quick test_file_writers;
      Alcotest.test_case "noise gain direct" `Quick test_noise_gain_direct;
      Alcotest.test_case "engine env" `Quick test_engine_env_accessor;
      Alcotest.test_case "interpolator accessors" `Quick
        test_interpolator_accessors;
      Alcotest.test_case "value misc" `Quick test_value_misc;
      Alcotest.test_case "fixed compare" `Quick test_fixed_compare;
    ] )
