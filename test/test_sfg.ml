(* Unit + property tests: Sfg — graph construction, interpretation, and
   the analytical range/noise analyses. *)

open Fixrefine

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let float_t = Alcotest.float 1e-9

(* feed-forward: y = 2x + 1 on x ∈ [-1, 1] *)
let ff_graph () =
  let g = Sfg.Graph.create () in
  let x = Sfg.Graph.input g "x" ~lo:(-1.0) ~hi:1.0 in
  let two = Sfg.Graph.const g ~name:"two" 2.0 in
  let one = Sfg.Graph.const g ~name:"one" 1.0 in
  let p = Sfg.Graph.mul g ~name:"p" x two in
  let y = Sfg.Graph.add g ~name:"y" p one in
  Sfg.Graph.mark_output g "y" y;
  g

(* accumulator: acc' = acc + x — the §5.1 case-(b) pattern *)
let acc_graph () =
  let g = Sfg.Graph.create () in
  let x = Sfg.Graph.input g "x" ~lo:(-1.0) ~hi:1.0 in
  let acc = Sfg.Graph.delay g "acc" in
  let sum = Sfg.Graph.add g ~name:"sum" acc x in
  Sfg.Graph.connect_delay g acc sum;
  Sfg.Graph.mark_output g "sum" sum;
  g

(* damped loop: acc' = 0.5·acc + x — converges to [-2, 2] *)
let damped_graph () =
  let g = Sfg.Graph.create () in
  let x = Sfg.Graph.input g "x" ~lo:(-1.0) ~hi:1.0 in
  let acc = Sfg.Graph.delay g "acc" in
  let half = Sfg.Graph.const g 0.5 in
  let scaled = Sfg.Graph.mul g ~name:"scaled" acc half in
  let sum = Sfg.Graph.add g ~name:"sum" scaled x in
  Sfg.Graph.connect_delay g acc sum;
  g

let test_arity_checked () =
  let g = Sfg.Graph.create () in
  let x = Sfg.Graph.input g "x" ~lo:0.0 ~hi:1.0 in
  check bool_t "bad arity raises" true
    (try
       ignore (Sfg.Graph.fresh g ~name:"bad" ~op:Sfg.Node.Add ~inputs:[ x ]);
       false
     with Invalid_argument _ -> true)

let test_validate_pending_delay () =
  let g = Sfg.Graph.create () in
  let _ = Sfg.Graph.delay g "dangling" in
  check bool_t "invalid" true (Result.is_error (Sfg.Graph.validate g))

let test_simulate_ff () =
  let g = ff_graph () in
  let traces = Sfg.Graph.simulate g ~steps:3 ~inputs:(fun _ i -> Float.of_int i) in
  let y = List.assoc "y" traces in
  check float_t "y0" 1.0 y.(0);
  check float_t "y1" 3.0 y.(1);
  check float_t "y2" 5.0 y.(2)

let test_simulate_delay_semantics () =
  let g = Sfg.Graph.create () in
  let x = Sfg.Graph.input g "x" ~lo:0.0 ~hi:10.0 in
  let d = Sfg.Graph.delay_of g ~init:7.0 "d" x in
  Sfg.Graph.mark_output g "d" d;
  let traces = Sfg.Graph.simulate g ~steps:3 ~inputs:(fun _ i -> Float.of_int i) in
  let d = List.assoc "d" traces in
  check float_t "initial value at t0" 7.0 d.(0);
  check float_t "one-cycle delay" 0.0 d.(1);
  check float_t "one-cycle delay 2" 1.0 d.(2)

let test_simulate_feedback_accumulates () =
  let g = acc_graph () in
  let traces = Sfg.Graph.simulate g ~steps:4 ~inputs:(fun _ _ -> 1.0) in
  let sum = List.assoc "sum" traces in
  check float_t "t3" 4.0 sum.(3)

let test_range_ff_exact () =
  let r = Sfg.Range_analysis.run (ff_graph ()) in
  check bool_t "y = [-1, 3]" true
    (Sfg.Range_analysis.range_of r "y" = Some (Interval.make (-1.0) 3.0));
  check bool_t "fast fixpoint" true (r.Sfg.Range_analysis.iterations <= 3)

let test_range_accumulator_explodes () =
  let r = Sfg.Range_analysis.run (acc_graph ()) in
  check bool_t "explodes" true
    (List.mem "acc" r.Sfg.Range_analysis.exploded);
  check bool_t "terminates" true (r.Sfg.Range_analysis.iterations < 64)

let test_range_damped_converges () =
  let r = Sfg.Range_analysis.run ~widen_after:40 (damped_graph ()) in
  check bool_t "no explosion" true (r.Sfg.Range_analysis.exploded = []);
  match Sfg.Range_analysis.range_of r "sum" with
  | Some iv ->
      (* limit is [-2, 2]; iteration stops within tolerance *)
      check bool_t "bounded by 2.01" true (Interval.mag iv <= 2.01);
      check bool_t "at least 1.9" true (Interval.mag iv >= 1.9)
  | None -> Alcotest.fail "no range"

let test_range_saturate_breaks_explosion () =
  let g = Sfg.Graph.create () in
  let x = Sfg.Graph.input g "x" ~lo:(-1.0) ~hi:1.0 in
  let acc = Sfg.Graph.delay g "acc" in
  let bounded = Sfg.Graph.saturate g ~name:"acc.range" acc ~lo:(-4.0) ~hi:4.0 in
  let sum = Sfg.Graph.add g ~name:"sum" bounded x in
  Sfg.Graph.connect_delay g acc sum;
  let r = Sfg.Range_analysis.run g in
  check bool_t "no explosion" true (r.Sfg.Range_analysis.exploded = []);
  check bool_t "sum range [-5,5]" true
    (Sfg.Range_analysis.range_of r "sum" = Some (Interval.make (-5.0) 5.0))

let test_range_msb_of () =
  let r = Sfg.Range_analysis.run (ff_graph ()) in
  check bool_t "msb of y([-1,3]) = 2" true
    (Sfg.Range_analysis.msb_of r "y" = Some 2)

(* property: analytical ranges are sound w.r.t. execution on random
   stimuli (feed-forward random graphs) *)
let prop_range_sound_on_execution =
  QCheck2.Test.make ~name:"analysis covers execution" ~count:100
    QCheck2.Gen.(
      pair (list_size (return 8) (int_range 0 3)) (int_range 0 1000))
    (fun (ops, seed) ->
      let g = Sfg.Graph.create () in
      let x = Sfg.Graph.input g "x" ~lo:(-1.0) ~hi:1.0 in
      let nodes = ref [ x ] in
      List.iteri
        (fun i op ->
          let pick k = List.nth !nodes (k mod List.length !nodes) in
          let name = Printf.sprintf "n%d" i in
          let id =
            match op with
            | 0 -> Sfg.Graph.add g ~name (pick i) (pick (i + 1))
            | 1 -> Sfg.Graph.sub g ~name (pick i) (pick (i + 1))
            | 2 -> Sfg.Graph.mul g ~name (pick i) (pick (i + 1))
            | _ -> Sfg.Graph.delay_of g name (pick i)
          in
          nodes := id :: !nodes)
        ops;
      let r = Sfg.Range_analysis.run g in
      let rng = Stats.Rng.create ~seed in
      let traces =
        Sfg.Graph.simulate g ~steps:50 ~inputs:(fun _ _ ->
            Stats.Rng.uniform rng ~lo:(-1.0) ~hi:1.0)
      in
      List.for_all
        (fun (name, trace) ->
          match Sfg.Range_analysis.range_of r name with
          | None -> true
          | Some iv -> Array.for_all (fun v -> Interval.mem v iv) trace)
        traces)

(* --- noise analysis ---------------------------------------------------- *)

let quantized_chain () =
  (* x --quantize--> q --*0.5--> y : output noise = 0.5²·q²/12 *)
  let g = Sfg.Graph.create () in
  let x = Sfg.Graph.input g "x" ~lo:(-1.0) ~hi:1.0 in
  let dt = Fixpt.Dtype.make "t" ~n:8 ~f:6 () in
  let q = Sfg.Graph.quantize g ~name:"q" dt x in
  let half = Sfg.Graph.const g 0.5 in
  let y = Sfg.Graph.mul g ~name:"y" q half in
  Sfg.Graph.mark_output g "y" y;
  (g, Fixpt.Dtype.step dt)

let test_noise_single_quantizer () =
  let g, step = quantized_chain () in
  let ranges = Sfg.Range_analysis.run g in
  let nz = Sfg.Noise_analysis.run g ~ranges in
  let expected = sqrt (step *. step /. 12.0) *. 0.5 in
  match Sfg.Noise_analysis.sigma_of nz "y" with
  | Some s -> check (Alcotest.float 1e-12) "scaled quantizer sigma" expected s
  | None -> Alcotest.fail "no sigma"

let test_noise_adds_variances () =
  let g = Sfg.Graph.create () in
  let x = Sfg.Graph.input g "x" ~lo:(-1.0) ~hi:1.0 in
  let dt = Fixpt.Dtype.make "t" ~n:8 ~f:6 () in
  let q1 = Sfg.Graph.quantize g ~name:"q1" dt x in
  let q2 = Sfg.Graph.quantize g ~name:"q2" dt x in
  let y = Sfg.Graph.add g ~name:"y" q1 q2 in
  Sfg.Graph.mark_output g "y" y;
  let ranges = Sfg.Range_analysis.run g in
  let nz = Sfg.Noise_analysis.run g ~ranges in
  let qvar = Fixpt.Dtype.step dt ** 2.0 /. 12.0 in
  match Sfg.Noise_analysis.moments_of nz "y" with
  | Some m ->
      check (Alcotest.float 1e-15) "sum of variances" (2.0 *. qvar)
        m.Sfg.Noise_analysis.var
  | None -> Alcotest.fail "no moments"

let test_noise_input_source () =
  let g = Sfg.Graph.create () in
  let x = Sfg.Graph.input g "x" ~lo:(-1.0) ~hi:1.0 in
  Sfg.Graph.mark_output g "x" x;
  let ranges = Sfg.Range_analysis.run g in
  let nz =
    Sfg.Noise_analysis.run g ~ranges ~input_noise:(fun _ ->
        { Sfg.Noise_analysis.mean = 0.0; mag = 0.0; var = 1e-4 })
  in
  check bool_t "source noise shows" true
    (Sfg.Noise_analysis.sigma_of nz "x" = Some 0.01)

let test_noise_floor_bias_cancellation () =
  (* Regression: two floor-mode quantizers feeding a subtraction.  Each
     injects a signed bias of −q/2; through [Sub] the biases cancel in
     the signed mean, while the conservative |mean| bound still stacks
     to q.  The old analysis took |·| of every operand mean at the
     injection points' consumers, so the two biases could never cancel
     — [y]'s mean came out q instead of 0. *)
  let g = Sfg.Graph.create () in
  let x = Sfg.Graph.input g "x" ~lo:(-1.0) ~hi:1.0 in
  let dt =
    Fixpt.Dtype.make "t" ~n:8 ~f:6 ~round:Fixpt.Round_mode.Floor
      ~overflow:Fixpt.Overflow_mode.Saturate ()
  in
  let q1 = Sfg.Graph.quantize g ~name:"q1" dt x in
  let q2 = Sfg.Graph.quantize g ~name:"q2" dt x in
  let y = Sfg.Graph.sub g ~name:"y" q1 q2 in
  Sfg.Graph.mark_output g "y" y;
  let ranges = Sfg.Range_analysis.run g in
  let nz = Sfg.Noise_analysis.run g ~ranges in
  let step = Fixpt.Dtype.step dt in
  (match Sfg.Noise_analysis.moments_of nz "q1" with
  | Some m ->
      check (Alcotest.float 1e-15) "floor bias is signed (negative)"
        (-.step /. 2.0) m.Sfg.Noise_analysis.mean;
      check (Alcotest.float 1e-15) "bias bound" (step /. 2.0)
        m.Sfg.Noise_analysis.mag
  | None -> Alcotest.fail "no moments for q1");
  match Sfg.Noise_analysis.moments_of nz "y" with
  | Some m ->
      check (Alcotest.float 1e-15) "biases cancel through sub" 0.0
        m.Sfg.Noise_analysis.mean;
      check (Alcotest.float 1e-15) "conservative bound still stacks" step
        m.Sfg.Noise_analysis.mag
  | None -> Alcotest.fail "no moments for y"

let test_noise_stable_loop_converges () =
  (* acc' = 0.5·acc + q(x): loop gain 0.25 in variance; total =
     qvar/(1-0.25) *)
  let g = Sfg.Graph.create () in
  let x = Sfg.Graph.input g "x" ~lo:(-1.0) ~hi:1.0 in
  let dt = Fixpt.Dtype.make "t" ~n:8 ~f:6 () in
  let q = Sfg.Graph.quantize g ~name:"q" dt x in
  let acc = Sfg.Graph.delay g "acc" in
  let bounded = Sfg.Graph.saturate g ~name:"b" acc ~lo:(-2.0) ~hi:2.0 in
  let half = Sfg.Graph.const g 0.5 in
  let scaled = Sfg.Graph.mul g ~name:"scaled" bounded half in
  let sum = Sfg.Graph.add g ~name:"sum" scaled q in
  Sfg.Graph.connect_delay g acc sum;
  let ranges = Sfg.Range_analysis.run g in
  let nz = Sfg.Noise_analysis.run g ~ranges in
  check bool_t "converged" true (nz.Sfg.Noise_analysis.diverged = []);
  let qvar = Fixpt.Dtype.step dt ** 2.0 /. 12.0 in
  match Sfg.Noise_analysis.moments_of nz "sum" with
  | Some m ->
      check (Alcotest.float 1e-9) "geometric series limit"
        (qvar /. 0.75) m.Sfg.Noise_analysis.var
  | None -> Alcotest.fail "no moments"

let test_noise_unstable_loop_diverges () =
  (* acc' = 1.5·acc + q(x): variance gain 2.25 > 1 *)
  let g = Sfg.Graph.create () in
  let x = Sfg.Graph.input g "x" ~lo:(-1.0) ~hi:1.0 in
  let dt = Fixpt.Dtype.make "t" ~n:8 ~f:6 () in
  let q = Sfg.Graph.quantize g ~name:"q" dt x in
  let acc = Sfg.Graph.delay g "acc" in
  let bounded = Sfg.Graph.saturate g ~name:"b" acc ~lo:(-2.0) ~hi:2.0 in
  let k = Sfg.Graph.const g 1.5 in
  let scaled = Sfg.Graph.mul g ~name:"scaled" bounded k in
  let sum = Sfg.Graph.add g ~name:"sum" scaled q in
  Sfg.Graph.connect_delay g acc sum;
  let ranges = Sfg.Range_analysis.run g in
  let nz = Sfg.Noise_analysis.run g ~ranges ~max_iter:256 in
  check bool_t "divergence detected" true
    (List.mem "sum" nz.Sfg.Noise_analysis.diverged
    || List.mem "acc" nz.Sfg.Noise_analysis.diverged)

(* --- wordlength (analytical baseline) ---------------------------------- *)

let test_wordlength_budget_respected () =
  let g, _ = quantized_chain () in
  let wl = Sfg.Wordlength.assign g ~output:"y" ~sigma_budget:1e-3 in
  check bool_t "no explosions" true (wl.Sfg.Wordlength.exploded = []);
  check bool_t "total bits computed" true
    (wl.Sfg.Wordlength.total_bits <> None);
  (* verify the budget analytically: re-run noise with assigned LSBs *)
  List.iter
    (fun (a : Sfg.Wordlength.assignment) ->
      match (a.Sfg.Wordlength.msb, a.Sfg.Wordlength.lsb) with
      | Some m, Some l -> check bool_t "msb >= lsb" true (m >= l)
      | _ -> ())
    wl.Sfg.Wordlength.assignments

let test_wordlength_tighter_budget_more_bits () =
  let g, _ = quantized_chain () in
  let loose = Sfg.Wordlength.assign g ~output:"y" ~sigma_budget:1e-2 in
  let tight = Sfg.Wordlength.assign g ~output:"y" ~sigma_budget:1e-5 in
  match (loose.Sfg.Wordlength.total_bits, tight.Sfg.Wordlength.total_bits) with
  | Some a, Some b -> check bool_t "tighter costs more" true (b > a)
  | _ -> Alcotest.fail "expected totals"

let test_wordlength_explosion_reported () =
  let wl = Sfg.Wordlength.assign (acc_graph ()) ~output:"sum" ~sigma_budget:1e-3 in
  check bool_t "exploded" true (wl.Sfg.Wordlength.exploded <> []);
  check bool_t "no total" true (wl.Sfg.Wordlength.total_bits = None)

(* A register holds its source's value: each delay-line register d[k]
   of the extracted low-pass FIR takes an LSB, so its width counts in
   the total (a register without one would count as 0 bits). *)
let test_wordlength_counts_registers () =
  let g =
    Designs.Design.extract ~outputs:[ "out" ] (Designs.Fir.lowpass ())
  in
  let wl = Sfg.Wordlength.assign g ~output:"out" ~sigma_budget:2e-3 in
  let regs = List.init 5 (Printf.sprintf "d[%d]") in
  let pick keep =
    List.filter
      (fun (a : Sfg.Wordlength.assignment) -> keep a.Sfg.Wordlength.name)
      wl.Sfg.Wordlength.assignments
  in
  let x_lsb =
    match pick (String.equal "x") with
    | [ a ] -> a.Sfg.Wordlength.lsb
    | _ -> Alcotest.fail "expected one x"
  in
  check bool_t "x has an LSB" true (x_lsb <> None);
  (* d[0] holds x and d[k] holds d[k-1]: the delay line keeps x's LSB *)
  List.iter
    (fun (a : Sfg.Wordlength.assignment) ->
      check bool_t (a.Sfg.Wordlength.name ^ " takes x's LSB") true
        (a.Sfg.Wordlength.lsb = x_lsb))
    (pick (fun n -> List.mem n regs));
  check int_t "five registers" 5 (List.length (pick (fun n -> List.mem n regs)));
  match
    ( Sfg.Wordlength.total_bits (pick (fun n -> List.mem n regs)),
      Sfg.Wordlength.total_bits (pick (fun n -> not (List.mem n regs))),
      wl.Sfg.Wordlength.total_bits )
  with
  | Some r, Some rest, Some total ->
      check bool_t "registers at least 1 bit each" true (r >= 5);
      check int_t "total includes the registers" (rest + r) total
  | _ -> Alcotest.fail "expected finite totals"

(* --- dot --------------------------------------------------------------- *)

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_dot_render () =
  let g = ff_graph () in
  let ranges = Sfg.Range_analysis.run g in
  let dot = Sfg.Dot.render ~ranges g in
  check bool_t "digraph" true (contains "digraph sfg" dot);
  check bool_t "node" true (contains "x\\ninput" dot);
  check bool_t "edge" true (contains "->" dot);
  check bool_t "range annotation" true (contains "[-1, 3]" dot);
  check bool_t "output port" true (contains "out_y" dot)

let test_dot_delay_dashed () =
  let dot = Sfg.Dot.render (acc_graph ()) in
  check bool_t "feedback dashed" true (contains "style=dashed" dot)

(* The cache-key substrate, byte for byte: escaped names, exact hex
   floats (signed zero, non-finite bounds), negative shifts and
   fractional positions. *)
let test_canonical_json_pinned () =
  let g = Sfg.Graph.create () in
  let a =
    Sfg.Graph.input g "x\"y\\z\n" ~lo:Float.neg_infinity ~hi:Float.infinity
  in
  let c = Sfg.Graph.const g ~name:"k" (-0.0) in
  let dt =
    Fixpt.Dtype.make "T" ~n:6 ~f:(-2) ~sign:Fixpt.Sign_mode.Us
      ~overflow:Fixpt.Overflow_mode.Saturate ()
  in
  let q = Sfg.Graph.quantize g ~name:"q" dt (Sfg.Graph.add g a c) in
  let d = Sfg.Graph.delay g ~init:0.1 "d" in
  Sfg.Graph.connect_delay g d (Sfg.Graph.shift g q (-3));
  let sat = Sfg.Graph.saturate g ~name:"s" d ~lo:(-1.5) ~hi:Float.infinity in
  Sfg.Graph.mark_output g "o\"ut" sat;
  Alcotest.(check string)
    "canonical json"
    "{\"nodes\": [{\"id\": 0, \"name\": \"x\\\"y\\\\z\\n\", \"node\": \
     {\"op\": \"input\", \"lo\": \"-infinity\", \"hi\": \"infinity\"}, \
     \"inputs\": []}, {\"id\": 1, \"name\": \"k\", \"node\": {\"op\": \
     \"const\", \"c\": \"-0x0p+0\"}, \"inputs\": []}, {\"id\": 2, \"name\": \
     \"add\", \"node\": {\"op\": \"add\"}, \"inputs\": [0, 1]}, {\"id\": 3, \
     \"name\": \"q\", \"node\": {\"op\": \"quantize\", \"dtype\": \
     \"T<6,-2,us,sat,rd>\"}, \"inputs\": [2]}, {\"id\": 4, \"name\": \"d\", \
     \"node\": {\"op\": \"delay\", \"init\": \"0x1.999999999999ap-4\"}, \
     \"inputs\": [5]}, {\"id\": 5, \"name\": \"shl\", \"node\": {\"op\": \
     \"shift\", \"k\": -3}, \"inputs\": [3]}, {\"id\": 6, \"name\": \"s\", \
     \"node\": {\"op\": \"saturate\", \"lo\": \"-0x1.8p+0\", \"hi\": \
     \"infinity\"}, \"inputs\": [4]}], \"outputs\": [{\"name\": \"o\\\"ut\", \
     \"id\": 6}]}"
    (Sfg.Graph.canonical_json g)

(* The verifier's search graph: inputs, registers (read or not) and
   casts keep their names and order; alias chains dissolve, also under
   a delay; an output-only chain and a branch that feeds nothing drop;
   the compiled interface (registers, inputs, quantizers) and every
   surviving node's trace equal the full graph's. *)
let test_state_cone () =
  let g = Sfg.Graph.create () in
  let dt = Fixpt.Dtype.make "q" ~n:6 ~f:3 () in
  let x = Sfg.Graph.input g "x" ~lo:(-1.0) ~hi:1.0 in
  let xa = Sfg.Graph.alias g ~name:"xa" (Sfg.Graph.alias g ~name:"x0" x) in
  let xq = Sfg.Graph.quantize g ~name:"xq" dt xa in
  let r = Sfg.Graph.delay g "r" in
  let fb = Sfg.Graph.mul g ~name:"fb" (Sfg.Graph.const g ~name:"k" 0.5) r in
  let y =
    Sfg.Graph.quantize g ~name:"y" dt (Sfg.Graph.add g ~name:"s" xq fb)
  in
  let ya = Sfg.Graph.alias g ~name:"ya" (Sfg.Graph.alias g ~name:"y0" y) in
  Sfg.Graph.connect_delay g r ya;
  ignore (Sfg.Graph.delay_of g "u" ya);
  let o =
    Sfg.Graph.add g ~name:"o"
      (Sfg.Graph.mul g ~name:"o3" (Sfg.Graph.const g ~name:"three" 3.0) y)
      r
  in
  Sfg.Graph.mark_output g "o" o;
  ignore (Sfg.Graph.sub g ~name:"dead" r xq);
  let h = Sfg.Graph.delay g ~init:0.25 "h" in
  Sfg.Graph.seal_delay g h;
  ignore
    (Sfg.Graph.quantize g ~name:"t" dt (Sfg.Graph.abs g ~name:"habs" h));
  let c = Sfg.Graph.state_cone g in
  let names g =
    List.map (fun (n : Sfg.Node.t) -> n.Sfg.Node.name) (Sfg.Graph.nodes g)
  in
  Alcotest.(check (list string))
    "kept nodes"
    [ "x"; "xq"; "r"; "k"; "fb"; "s"; "y"; "u"; "h"; "habs"; "t" ]
    (names c);
  let id name =
    (List.find
       (fun (n : Sfg.Node.t) -> n.Sfg.Node.name = name)
       (Sfg.Graph.nodes c))
      .Sfg.Node.id
  in
  let inputs name = (Sfg.Graph.node c (id name)).Sfg.Node.inputs in
  Alcotest.(check (list int)) "xq reads x" [ id "x" ] (inputs "xq");
  Alcotest.(check (list int)) "r registers y" [ id "y" ] (inputs "r");
  Alcotest.(check (list int)) "u registers y" [ id "y" ] (inputs "u");
  Alcotest.(check (list int)) "h holds itself" [ id "h" ] (inputs "h");
  check int_t "node count" 11 (Sfg.Graph.node_count c);
  check int_t "no outputs" 0 (List.length (Sfg.Graph.outputs c));
  check bool_t "closed" true (Sfg.Graph.validate c = Ok ());
  let full = Compile.compile g and cone = Compile.compile c in
  check int_t "registers" (Compile.register_count full)
    (Compile.register_count cone);
  Alcotest.(check (array string))
    "inputs" (Compile.input_names full) (Compile.input_names cone);
  Alcotest.(check (list string))
    "quantizers"
    (List.map fst (Compile.overflows full))
    (List.map fst (Compile.overflows cone));
  Alcotest.(check (array (float 0.0)))
    "initial state" (Compile.initial_state full) (Compile.initial_state cone);
  let stim _ step = Float.of_int ((step * 5) mod 9 - 4) *. 0.25 in
  let tf = Sfg.Graph.simulate g ~steps:12 ~inputs:stim in
  List.iter
    (fun (name, tr) ->
      Alcotest.(check (array (float 0.0))) name (List.assoc name tf) tr)
    (Sfg.Graph.simulate c ~steps:12 ~inputs:stim);
  (* a pending delay stays pending *)
  let p = Sfg.Graph.create () in
  ignore (Sfg.Graph.delay p "open");
  check bool_t "pending kept" true
    (Result.is_error (Sfg.Graph.validate (Sfg.Graph.state_cone p)))

let suite =
  ( "sfg",
    [
      Alcotest.test_case "state cone" `Quick test_state_cone;
      Alcotest.test_case "canonical json pinned" `Quick
        test_canonical_json_pinned;
      Alcotest.test_case "arity checked" `Quick test_arity_checked;
      Alcotest.test_case "validate pending delay" `Quick
        test_validate_pending_delay;
      Alcotest.test_case "simulate ff" `Quick test_simulate_ff;
      Alcotest.test_case "simulate delay" `Quick
        test_simulate_delay_semantics;
      Alcotest.test_case "simulate feedback" `Quick
        test_simulate_feedback_accumulates;
      Alcotest.test_case "range ff exact" `Quick test_range_ff_exact;
      Alcotest.test_case "range accumulator explodes" `Quick
        test_range_accumulator_explodes;
      Alcotest.test_case "range damped converges" `Quick
        test_range_damped_converges;
      Alcotest.test_case "saturate breaks explosion" `Quick
        test_range_saturate_breaks_explosion;
      Alcotest.test_case "range msb_of" `Quick test_range_msb_of;
      Test_support.Qseed.to_alcotest prop_range_sound_on_execution;
      Alcotest.test_case "noise single quantizer" `Quick
        test_noise_single_quantizer;
      Alcotest.test_case "noise adds variances" `Quick
        test_noise_adds_variances;
      Alcotest.test_case "noise input source" `Quick test_noise_input_source;
      Alcotest.test_case "noise floor-bias cancellation" `Quick
        test_noise_floor_bias_cancellation;
      Alcotest.test_case "noise stable loop" `Quick
        test_noise_stable_loop_converges;
      Alcotest.test_case "noise unstable loop" `Quick
        test_noise_unstable_loop_diverges;
      Alcotest.test_case "wordlength budget" `Quick
        test_wordlength_budget_respected;
      Alcotest.test_case "wordlength budget scaling" `Quick
        test_wordlength_tighter_budget_more_bits;
      Alcotest.test_case "wordlength explosion" `Quick
        test_wordlength_explosion_reported;
      Alcotest.test_case "wordlength counts registers" `Quick
        test_wordlength_counts_registers;
      Alcotest.test_case "dot render" `Quick test_dot_render;
      Alcotest.test_case "dot delay dashed" `Quick test_dot_delay_dashed;
    ] )
