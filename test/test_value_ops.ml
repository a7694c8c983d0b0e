(* Unit + property tests: Sim.Value and Sim.Ops — the triple-computation
   operators (Fig. 2). *)

open Fixrefine
open Sim.Ops

let check = Alcotest.check
let bool_t = Alcotest.bool
let float_t = Alcotest.float 1e-12

let v ?iv fx fl =
  let iv =
    match iv with
    | Some (lo, hi) -> Interval.make lo hi
    | None -> Interval.make (Float.min fx fl) (Float.max fx fl)
  in
  Sim.Value.with_range (Sim.Value.with_fl (Sim.Value.const fx) fl) iv

let test_const () =
  let c = cst 1.5 in
  check float_t "fx" 1.5 (Sim.Value.fx c);
  check float_t "fl" 1.5 (Sim.Value.fl c);
  check bool_t "point interval" true
    (Interval.equal (Sim.Value.iv c) (Interval.of_point 1.5))

let test_add_components () =
  let a = v ~iv:(0.0, 2.0) 1.0 1.01 and b = v ~iv:(-1.0, 1.0) 0.5 0.49 in
  let s = a +: b in
  check float_t "fx" 1.5 (Sim.Value.fx s);
  check float_t "fl" 1.5 (Sim.Value.fl s);
  check bool_t "iv" true
    (Interval.equal (Sim.Value.iv s) (Interval.make (-1.0) 3.0))

let test_mul_components () =
  let a = v ~iv:(-1.0, 2.0) 1.5 1.5 and b = v ~iv:(0.0, 3.0) 2.0 2.0 in
  let p = a *: b in
  check float_t "fx" 3.0 (Sim.Value.fx p);
  check bool_t "iv" true
    (Interval.equal (Sim.Value.iv p) (Interval.make (-3.0) 6.0))

let test_error_tracks_difference () =
  let a = v 1.0 1.25 in
  check float_t "consumed error" 0.25 (Sim.Value.error a);
  let doubled = a +: a in
  check float_t "error adds" 0.5 (Sim.Value.error doubled)

let test_relational_on_fixed () =
  (* fx and fl disagree: the decision must follow fx (§4.2) *)
  let a = v 1.0 (-5.0) in
  check bool_t "fx steers >" true (a >: cst 0.0);
  check bool_t "fx steers <" false (a <: cst 0.0);
  check bool_t "=" true (a =: v 1.0 99.0)

let test_select_joins_ranges () =
  let a = v ~iv:(0.0, 1.0) 0.5 0.5 and b = v ~iv:(-4.0, -2.0) (-3.0) (-3.0) in
  let s = select true a b in
  check float_t "took a" 0.5 (Sim.Value.fx s);
  check bool_t "range joins both branches" true
    (Interval.equal (Sim.Value.iv s) (Interval.make (-4.0) 1.0))

let test_sign_slicer () =
  check float_t "positive" 1.0 (Sim.Value.fx (sign (cst 0.3)));
  check float_t "negative" (-1.0) (Sim.Value.fx (sign (cst (-0.3))));
  check float_t "zero is +1" 1.0 (Sim.Value.fx (sign (cst 0.0)))

let test_shift () =
  let a = v ~iv:(-1.0, 1.0) 0.5 0.5 in
  check float_t "shl 3" 4.0 (Sim.Value.fx (shift_left a 3));
  check float_t "shr 1" 0.25 (Sim.Value.fx (shift_right a 1));
  check bool_t "iv scaled" true
    (Interval.equal (Sim.Value.iv (shift_left a 3)) (Interval.make (-8.0) 8.0))

let test_abs_min_max () =
  let a = v ~iv:(-2.0, 1.0) (-1.5) (-1.5) in
  check float_t "abs" 1.5 (Sim.Value.fx (abs a));
  check float_t "min" (-1.5) (Sim.Value.fx (min_ a (cst 3.0)));
  check float_t "max" 3.0 (Sim.Value.fx (max_ a (cst 3.0)))

let test_cast_quantizes_fx_only () =
  let dtq = Fixpt.Dtype.make "q" ~n:4 ~f:2 () in
  let a = v 0.6 0.6 in
  let c = cast dtq a in
  check float_t "fx quantized" 0.5 (Sim.Value.fx c);
  check float_t "fl untouched" 0.6 (Sim.Value.fl c)

let test_cast_saturating_clamps_range () =
  let dtq =
    Fixpt.Dtype.make "q" ~n:4 ~f:2 ~overflow:Fixpt.Overflow_mode.Saturate ()
  in
  let a = v ~iv:(-100.0, 100.0) 0.5 0.5 in
  let c = cast dtq a in
  check bool_t "range clamped to type" true
    (Interval.subset (Sim.Value.iv c)
       (Interval.make (Fixpt.Dtype.min_value dtq) (Fixpt.Dtype.max_value dtq)))

let gen_v =
  QCheck2.Gen.(
    map3
      (fun fx dfl w ->
        let lo = Float.min fx (fx +. dfl) -. Float.abs w in
        let hi = Float.max fx (fx +. dfl) +. Float.abs w in
        v ~iv:(lo, hi) fx (fx +. dfl))
      (float_range (-50.0) 50.0)
      (float_range (-1.0) 1.0)
      (float_range 0.0 10.0))

(* invariant: ops keep fx and fl inside the propagated interval when the
   operands were inside theirs *)
let prop_ops_keep_membership =
  let mem x = Interval.mem (Sim.Value.fx x) (Sim.Value.iv x) in
  QCheck2.Test.make ~name:"ops preserve fx ∈ iv" ~count:2000
    QCheck2.Gen.(pair gen_v gen_v)
    (fun (a, b) ->
      mem (a +: b) && mem (a -: b) && mem (a *: b) && mem (abs a)
      && mem (min_ a b) && mem (max_ a b) && mem (~-:a))

let prop_fl_membership =
  let memfl x = Interval.mem (Sim.Value.fl x) (Sim.Value.iv x) in
  QCheck2.Test.make ~name:"ops preserve fl ∈ iv" ~count:2000
    QCheck2.Gen.(pair gen_v gen_v)
    (fun (a, b) -> memfl (a +: b) && memfl (a *: b) && memfl (a -: b))

let suite =
  ( "value-ops",
    [
      Alcotest.test_case "const" `Quick test_const;
      Alcotest.test_case "add components" `Quick test_add_components;
      Alcotest.test_case "mul components" `Quick test_mul_components;
      Alcotest.test_case "error tracking" `Quick test_error_tracks_difference;
      Alcotest.test_case "relational on fixed" `Quick
        test_relational_on_fixed;
      Alcotest.test_case "select joins ranges" `Quick
        test_select_joins_ranges;
      Alcotest.test_case "sign slicer" `Quick test_sign_slicer;
      Alcotest.test_case "shift" `Quick test_shift;
      Alcotest.test_case "abs/min/max" `Quick test_abs_min_max;
      Alcotest.test_case "cast quantizes fx only" `Quick
        test_cast_quantizes_fx_only;
      Alcotest.test_case "saturating cast clamps range" `Quick
        test_cast_saturating_clamps_range;
      Test_support.Qseed.to_alcotest prop_ops_keep_membership;
      Test_support.Qseed.to_alcotest prop_fl_membership;
    ] )
