(* Tests: two feedback loops on the unit circle and beyond it, built
   from Sim signals in this file (no library design uses them): a
   Goertzel single-bin detector, whose resonator state grows with the
   block length, and an automatic gain control loop, whose gain register
   has no intrinsic bound.  They check the dual fixed/float simulation
   against float references, the statistic range monitor, and the MSB
   rules' case (b) on the unclamped gain versus a range() clamp. *)

open Fixrefine
open Sim.Ops

let check = Alcotest.check
let bool_t = Alcotest.bool
let float_t eps = Alcotest.float eps

(* s_n = x_n + 2cos(w)·s_{n-1} - s_{n-2}; at each block end
   power = s_{N-1}^2 + s_{N-2}^2 - 2cos(w)·s_{N-1}·s_{N-2}, then the
   recursion restarts *)
module Goertzel = struct
  type t = {
    coeff : float;
    block : int;
    s1 : Sim.Signal.t;
    s2 : Sim.Signal.t;
    s0 : Sim.Signal.t;
    power : Sim.Signal.t;
    mutable count : int;
  }

  let create env ~bin ~n () =
    {
      coeff = 2.0 *. cos (2.0 *. Float.pi *. Float.of_int bin /. Float.of_int n);
      block = n;
      s1 = Sim.Signal.create_reg env "gz_s1";
      s2 = Sim.Signal.create_reg env "gz_s2";
      s0 = Sim.Signal.create env "gz_s0";
      power = Sim.Signal.create env "gz_power";
      count = 0;
    }

  let state_signals t = [ t.s1; t.s2; t.s0 ]

  (* [Some power] at block ends *)
  let step t x =
    let coeff = cst t.coeff in
    t.s0 <-- x +: (coeff *: !!(t.s1)) -: !!(t.s2);
    t.count <- t.count + 1;
    if t.count < t.block then begin
      t.s2 <-- !!(t.s1);
      t.s1 <-- !!(t.s0);
      None
    end
    else begin
      t.count <- 0;
      t.power
      <-- (!!(t.s0) *: !!(t.s0))
          +: (!!(t.s1) *: !!(t.s1))
          -: (coeff *: !!(t.s0) *: !!(t.s1));
      t.s1 <-- cst 0.0;
      t.s2 <-- cst 0.0;
      Some !!(t.power)
    end

  (* |DFT bin|^2 of one block *)
  let reference ~bin ~n x =
    let re = ref 0.0 and im = ref 0.0 in
    for j = 0 to n - 1 do
      let a = -2.0 *. Float.pi *. Float.of_int (bin * j) /. Float.of_int n in
      re := !re +. (x.(j) *. cos a);
      im := !im +. (x.(j) *. sin a)
    done;
    (!re *. !re) +. (!im *. !im)
end

(* y_n = g_n·x_n, p_n = (1-a)·p_{n-1} + a·|y_n|,
   g_{n+1} = g_n + mu·(target - p_n); the gain register restarts at 1 *)
module Agc = struct
  let alpha = 0.05
  let mu = 0.05

  type t = {
    target : float;
    g : Sim.Signal.t;
    p : Sim.Signal.t;
    y : Sim.Signal.t;
    dev : Sim.Signal.t;
  }

  let create env ?(target = 1.0) () =
    let t =
      {
        target;
        g = Sim.Signal.create_reg env "agc_g";
        p = Sim.Signal.create_reg env "agc_p";
        y = Sim.Signal.create env "agc_y";
        dev = Sim.Signal.create env "agc_dev";
      }
    in
    Sim.Env.at_reset env (fun () -> Sim.Signal.init t.g 1.0);
    t

  let gain t = t.g

  let step t x =
    t.y <-- !!(t.g) *: x;
    (* the deviation uses the fresh level estimate *)
    let p_new = (cst (1.0 -. alpha) *: !!(t.p)) +: (cst alpha *: abs !!(t.y)) in
    t.p <-- p_new;
    t.dev <-- cst t.target -: p_new;
    t.g <-- !!(t.g) +: (cst mu *: !!(t.dev));
    !!(t.y)

  let reference input =
    let g = ref 1.0 and p = ref 0.0 in
    Array.map
      (fun x ->
        let y = !g *. x in
        p := ((1.0 -. alpha) *. !p) +. (alpha *. Float.abs y);
        g := !g +. (mu *. (1.0 -. !p));
        y)
      input
end

(* --- Goertzel ----------------------------------------------------------- *)

let run_goertzel ~bin ~n input =
  let env = Sim.Env.create () in
  let g = Goertzel.create env ~bin ~n () in
  let powers = ref [] in
  Array.iter
    (fun x ->
      (match Goertzel.step g (cst x) with
      | Some p -> powers := Sim.Value.fx p :: !powers
      | None -> ());
      Sim.Env.tick env)
    input;
  (env, g, List.rev !powers)

let test_goertzel_matches_dft () =
  let n = 32 and bin = 5 in
  let rng = Stats.Rng.create ~seed:3 in
  let block = Array.init n (fun _ -> Stats.Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
  let _, _, powers = run_goertzel ~bin ~n block in
  match powers with
  | [ p ] ->
      check (float_t 1e-6) "equals |DFT bin|^2"
        (Goertzel.reference ~bin ~n block)
        p
  | _ -> Alcotest.fail "expected one block result"

let test_goertzel_detects_tone () =
  let n = 64 and bin = 8 in
  let tone k =
    Array.init n (fun j ->
        cos (2.0 *. Float.pi *. Float.of_int (k * j) /. Float.of_int n))
  in
  let _, _, p_in = run_goertzel ~bin ~n (tone bin) in
  let _, _, p_out = run_goertzel ~bin ~n (tone (bin + 7)) in
  match (p_in, p_out) with
  | [ pi ], [ po ] ->
      check bool_t "in-bin tone dominates" true (pi > 1000.0 *. Float.max po 1e-12)
  | _ -> Alcotest.fail "expected one block each"

let test_goertzel_multiple_blocks () =
  let n = 16 and bin = 3 in
  let input = Array.make 48 0.25 in
  let _, _, powers = run_goertzel ~bin ~n input in
  check Alcotest.int "three blocks" 3 (List.length powers);
  (* DC input, non-zero bin: small leakage, identical across blocks *)
  match powers with
  | a :: rest -> List.iter (fun p -> check (float_t 1e-9) "stable" a p) rest
  | [] -> Alcotest.fail "no blocks"

let test_goertzel_state_growth () =
  (* on an in-bin tone, the resonator state magnitude grows with the
     block — its range needs block-length-dependent MSBs *)
  let n = 64 and bin = 8 in
  let tone =
    Array.init n (fun j ->
        cos (2.0 *. Float.pi *. Float.of_int (bin * j) /. Float.of_int n))
  in
  let env, g, _ = run_goertzel ~bin ~n tone in
  ignore env;
  let s1 = List.hd (Goertzel.state_signals g) in
  match Sim.Signal.stat_range s1 with
  | Some (lo, hi) ->
      check bool_t "state >> input" true (Float.max (-.lo) hi > 5.0)
  | None -> Alcotest.fail "no range"

(* --- AGC ------------------------------------------------------------------ *)

let test_agc_matches_reference () =
  let env = Sim.Env.create () in
  let agc = Agc.create env () in
  let rng = Stats.Rng.create ~seed:5 in
  let input = Array.init 200 (fun _ -> 0.3 *. Stats.Rng.pam2 rng) in
  let expected = Agc.reference input in
  let i = ref 0 in
  Sim.Engine.run env ~cycles:200 (fun _ ->
      let y = Agc.step agc (cst input.(!i)) in
      check (float_t 1e-9) (Printf.sprintf "y %d" !i) expected.(!i)
        (Sim.Value.fx y);
      incr i)

let test_agc_normalizes_level () =
  List.iter
    (fun amplitude ->
      let env = Sim.Env.create () in
      let agc = Agc.create env ~target:1.0 () in
      let rng = Stats.Rng.create ~seed:9 in
      Sim.Engine.run env ~cycles:2000 (fun _ ->
          ignore (Agc.step agc (cst (amplitude *. Stats.Rng.pam2 rng))));
      (* gain settles near target / E|x| = 1 / amplitude *)
      check (Alcotest.float 0.1)
        (Printf.sprintf "gain at A=%g" amplitude)
        (1.0 /. amplitude)
        (Sim.Signal.peek_fx (Agc.gain agc)))
    [ 0.25; 0.5; 2.0 ]

let test_agc_gain_needs_range_annotation () =
  (* unannotated, the gain register's propagated range explodes — the
     designer's gain clamp is mandatory; with it, the range analysis
     closes *)
  let env = Sim.Env.create () in
  let agc = Agc.create env () in
  let rng = Stats.Rng.create ~seed:11 in
  Sim.Engine.run env ~cycles:1500 (fun _ ->
      ignore (Agc.step agc (cst (0.5 *. Stats.Rng.pam2 rng))));
  (* the propagated range grows without bound (geometrically): rule (b)
     flags the accumulator long before the hard explosion threshold *)
  let d0 = Refine.Msb_rules.decide (Agc.gain agc) in
  check bool_t "rule (b) on the unannotated gain" true
    (d0.Refine.Decision.case = Refine.Decision.Prop_pessimistic);
  Sim.Signal.range (Agc.gain agc) 0.0 8.0;
  Sim.Env.reset env;
  let rng2 = Stats.Rng.create ~seed:11 in
  Sim.Engine.run env ~cycles:1500 (fun _ ->
      ignore (Agc.step agc (cst (0.5 *. Stats.Rng.pam2 rng2))));
  let d = Refine.Msb_rules.decide (Agc.gain agc) in
  check bool_t "decided saturated at the clamp" true
    (Fixpt.Overflow_mode.is_saturating d.Refine.Decision.mode)

let suite =
  ( "goertzel-agc",
    [
      Alcotest.test_case "goertzel vs dft" `Quick test_goertzel_matches_dft;
      Alcotest.test_case "goertzel detects tone" `Quick
        test_goertzel_detects_tone;
      Alcotest.test_case "goertzel blocks" `Quick test_goertzel_multiple_blocks;
      Alcotest.test_case "goertzel state growth" `Quick
        test_goertzel_state_growth;
      Alcotest.test_case "agc vs reference" `Quick test_agc_matches_reference;
      Alcotest.test_case "agc normalizes" `Quick test_agc_normalizes_level;
      Alcotest.test_case "agc gain range" `Quick
        test_agc_gain_needs_range_annotation;
    ] )
