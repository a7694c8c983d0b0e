(* Tests: Sim.Record / Sim.Extract — automatic signal-flowgraph
   extraction from an executing design (§4.1 "Analytical"). *)

open Fixrefine
open Sim.Ops

let check = Alcotest.check
let bool_t = Alcotest.bool
let float_t = Alcotest.float 1e-9

let test_extract_feedforward_expression () =
  let env = Sim.Env.create () in
  let x = Sim.Signal.create env "x" in
  Sim.Signal.range x (-1.0) 1.0;
  let y = Sim.Signal.create env "y" in
  let step () =
    x <-- Sim.Value.of_float 0.5;
    y <-- (!!x *: cst 2.0) +: cst 1.0
  in
  let _, ranges = Sim.Extract.analyze env ~step () in
  match Sfg.Range_analysis.range_of ranges "y" with
  | Some iv ->
      check float_t "lo" (-1.0) (Interval.lo iv);
      check float_t "hi" 3.0 (Interval.hi iv)
  | None -> Alcotest.fail "y not in extracted graph"

let test_extract_register_feedback () =
  let env = Sim.Env.create () in
  let acc = Sim.Signal.create_reg env "acc" in
  let x = Sim.Signal.create env "x" in
  Sim.Signal.range x (-1.0) 1.0;
  let step () =
    x <-- Sim.Value.of_float 0.1;
    acc <-- !!acc +: !!x
  in
  let _, ranges = Sim.Extract.analyze env ~step () in
  check bool_t "accumulator explodes analytically" true
    (List.mem "acc" ranges.Sfg.Range_analysis.exploded)

let test_extract_explicit_range_bounds_loop () =
  let env = Sim.Env.create () in
  let acc = Sim.Signal.create_reg env "acc" in
  Sim.Signal.range acc (-4.0) 4.0;
  let x = Sim.Signal.create env "x" in
  Sim.Signal.range x (-1.0) 1.0;
  let step () =
    x <-- Sim.Value.of_float 0.1;
    acc <-- !!acc +: !!x
  in
  let _, ranges = Sim.Extract.analyze env ~step () in
  check bool_t "bounded" true (ranges.Sfg.Range_analysis.exploded = [])

let test_extract_dtype_becomes_quantizer () =
  let env = Sim.Env.create () in
  let dt = Fixpt.Dtype.make "T" ~n:8 ~f:6 () in
  let x = Sim.Signal.create env "x" in
  Sim.Signal.range x (-1.0) 1.0;
  let q = Sim.Signal.create env ~dtype:dt "q" in
  let step () =
    x <-- Sim.Value.of_float 0.5;
    q <-- !!x
  in
  let g = Sim.Extract.graph env ~step () in
  let has_quantizer =
    List.exists
      (fun (n : Sfg.Node.t) ->
        match n.Sfg.Node.op with Sfg.Node.Quantize _ -> true | _ -> false)
      (Sfg.Graph.nodes g)
  in
  check bool_t "quantizer node present" true has_quantizer;
  (* and the noise analysis sees its q^2/12 *)
  let ranges = Sfg.Range_analysis.run g in
  let nz = Sfg.Noise_analysis.run g ~ranges in
  match Sfg.Noise_analysis.sigma_of nz "q" with
  | Some s ->
      check (Alcotest.float 1e-12) "quantizer sigma"
        (Fixpt.Dtype.step dt /. sqrt 12.0)
        s
  | None -> Alcotest.fail "no sigma for q"

let test_extract_constants_from_init () =
  let env = Sim.Env.create () in
  let c = Sim.Signal.create env "c" in
  Sim.Signal.init c 0.25;
  let x = Sim.Signal.create env "x" in
  Sim.Signal.range x (-1.0) 1.0;
  let y = Sim.Signal.create env "y" in
  let step () =
    x <-- Sim.Value.of_float 0.5;
    y <-- (!!x *: !!c)
  in
  let _, ranges = Sim.Extract.analyze env ~step () in
  match Sfg.Range_analysis.range_of ranges "y" with
  | Some iv -> check float_t "scaled by the constant" 0.25 (Interval.hi iv)
  | None -> Alcotest.fail "no y"

(* The ranges the retired hand-written equalizer flowgraph gave with
   [b.range(-0.2, 0.2)], pinned bit for bit. *)
let handbuilt_ranges =
  [
    ("v[1]", 0x1.51eb851eb851fp-3);
    ("v[2]", 0x1.f70a3d70a3d7p+0);
    ("v[3]", 0x1.1666666666666p+1);
    ("w", 0x1.3p+1);
    ("y", 0x1p+0);
  ]

let test_extract_equalizer_matches_handbuilt () =
  (* the headline: the extracted graph analyzes identically to the
     hand-written flowgraph it replaced *)
  let env = Sim.Env.create ~seed:11 () in
  let rng = Stats.Rng.create ~seed:2024 in
  let stimulus, _ = Dsp.Channel_model.isi_awgn ~rng ~n_symbols:500 () in
  let input = Sim.Channel.of_fun "rx" stimulus in
  let output = Sim.Channel.create "y" in
  let eq = Dsp.Lms_equalizer.create env ~input ~output () in
  Sim.Signal.range (Dsp.Lms_equalizer.x eq) (-1.5) 1.5;
  Dsp.Lms_equalizer.run eq ~cycles:100;
  (* unannotated: the same feedback signals explode *)
  let _, r1 =
    Sim.Extract.analyze env ~step:(fun () -> Dsp.Lms_equalizer.step eq) ()
  in
  check bool_t "b explodes" true (List.mem "b" r1.Sfg.Range_analysis.exploded);
  check bool_t "w explodes" true (List.mem "w" r1.Sfg.Range_analysis.exploded);
  (* annotated: bounded, and v[3]'s range equals the hand-built graph's *)
  Sim.Signal.range (Dsp.Lms_equalizer.b eq) (-0.2) 0.2;
  let _, r2 =
    Sim.Extract.analyze env ~step:(fun () -> Dsp.Lms_equalizer.step eq) ()
  in
  check bool_t "bounded" true (r2.Sfg.Range_analysis.exploded = []);
  List.iter
    (fun (name, hi) ->
      match Sfg.Range_analysis.range_of r2 name with
      | Some a ->
          check float_t (name ^ " lo") (-.hi) (Interval.lo a);
          check float_t (name ^ " hi") hi (Interval.hi a)
      | None -> Alcotest.fail ("missing " ^ name))
    handbuilt_ranges

let test_extract_never_written_register_holds () =
  let env = Sim.Env.create () in
  let r = Sim.Signal.create_reg env "hold" in
  let y = Sim.Signal.create env "y" in
  let step () = y <-- !!r +: cst 1.0 in
  let g = Sim.Extract.graph env ~step () in
  check bool_t "graph valid (delay sealed)" true
    (Result.is_ok (Sfg.Graph.validate g));
  let ranges = Sfg.Range_analysis.run g in
  check bool_t "hold register stays at init" true
    (Sfg.Range_analysis.range_of ranges "hold" = Some (Interval.of_point 0.0))

let test_extract_graph_executes_like_design () =
  (* cross-check: interpret the extracted graph and compare with the
     simulation's own output on the same stimulus *)
  let env = Sim.Env.create () in
  let x = Sim.Signal.create env "x" in
  Sim.Signal.range x (-1.0) 1.0;
  let fir = Dsp.Fir.create env ~coefs:[| 0.5; 0.25 |] () in
  let out = Sim.Signal.create env "out" in
  let samples = [| 0.1; -0.4; 0.8; 0.3; -0.9 |] in
  let idx = ref 0 in
  let step () =
    x <-- Sim.Value.of_float samples.(!idx mod 5);
    out <-- Dsp.Fir.step fir !!x;
    incr idx
  in
  (* extract after a couple of cycles *)
  Sim.Engine.run env ~cycles:2 (fun _ -> step ());
  let g = Sim.Extract.graph env ~step () in
  (* fresh interpretation of the extracted graph on the full stimulus *)
  let traces =
    Sfg.Graph.simulate g ~steps:5 ~inputs:(fun name i ->
        if String.length name >= 4 && String.sub name 0 4 = "x_in" then
          samples.(i)
        else 0.0)
  in
  let sim_out = List.assoc "out" traces in
  let expected = Dsp.Fir.reference ~coefs:[| 0.5; 0.25 |] samples in
  (* one-cycle register latency, as in the design *)
  for i = 1 to 4 do
    check float_t (Printf.sprintf "t%d" i) expected.(i - 1) sim_out.(i)
  done

let test_recording_is_isolated () =
  (* values created outside a session carry no node; a session does not
     leak after stop *)
  let v = Sim.Value.const 1.0 in
  check bool_t "no node" true (Sim.Value.node v = Sim.Value.no_node);
  let env = Sim.Env.create () in
  let s = Sim.Signal.create env "s" in
  let _ = Sim.Extract.graph env ~step:(fun () -> s <-- cst 1.0) () in
  check bool_t "no active session after extract" true
    (Sim.Record.active () = None);
  let v2 = !!s in
  check bool_t "reads clean after session" true
    (Sim.Value.node v2 = Sim.Value.no_node)

let suite =
  ( "extract",
    [
      Alcotest.test_case "feed-forward expression" `Quick
        test_extract_feedforward_expression;
      Alcotest.test_case "register feedback" `Quick
        test_extract_register_feedback;
      Alcotest.test_case "explicit range bounds loop" `Quick
        test_extract_explicit_range_bounds_loop;
      Alcotest.test_case "dtype becomes quantizer" `Quick
        test_extract_dtype_becomes_quantizer;
      Alcotest.test_case "constants from init" `Quick
        test_extract_constants_from_init;
      Alcotest.test_case "equalizer matches hand-built" `Quick
        test_extract_equalizer_matches_handbuilt;
      Alcotest.test_case "never-written register" `Quick
        test_extract_never_written_register_holds;
      Alcotest.test_case "extracted graph executes" `Quick
        test_extract_graph_executes_like_design;
      Alcotest.test_case "recording isolated" `Quick test_recording_is_isolated;
    ] )
