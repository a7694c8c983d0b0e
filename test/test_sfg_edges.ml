(* Tests: Sfg.Range_analysis and Sfg.Wordlength edge cases —
   degenerate (zero-width) intervals, and feedback-loop range explosion
   detection with its range() remedy. *)

open Fixrefine

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let range_is r name lo hi =
  match Sfg.Range_analysis.range_of r name with
  | Some iv ->
      (not (Interval.is_empty iv))
      && Float.equal (Interval.lo iv) lo
      && Float.equal (Interval.hi iv) hi
  | None -> false

(* --- degenerate / zero-width intervals ----------------------------------- *)

let test_zero_width_input () =
  (* a point input is legal; ranges stay points through the datapath *)
  let g = Sfg.Graph.create () in
  let x = Sfg.Graph.input g "x" ~lo:0.75 ~hi:0.75 in
  let y = Sfg.Graph.add g ~name:"y" x x in
  Sfg.Graph.mark_output g "y" y;
  let r = Sfg.Range_analysis.run g in
  check bool_t "point in, point out" true (range_is r "y" 1.5 1.5);
  check int_t "nothing exploded" 0
    (List.length r.Sfg.Range_analysis.exploded)

let test_zero_constant_wordlength () =
  (* the all-zero interval must not break MSB assignment *)
  let g = Sfg.Graph.create () in
  let z = Sfg.Graph.const g ~name:"z" 0.0 in
  let x = Sfg.Graph.input g "x" ~lo:(-1.0) ~hi:1.0 in
  let y = Sfg.Graph.add g ~name:"y" x z in
  Sfg.Graph.mark_output g "y" y;
  let res = Sfg.Wordlength.assign g ~output:"y" ~sigma_budget:1e-3 in
  check int_t "nothing exploded" 0 (List.length res.Sfg.Wordlength.exploded);
  check bool_t "finite total" true (res.Sfg.Wordlength.total_bits <> None);
  let y_assignment =
    List.find
      (fun (a : Sfg.Wordlength.assignment) -> a.Sfg.Wordlength.name = "y")
      res.Sfg.Wordlength.assignments
  in
  check bool_t "y has an MSB" true (y_assignment.Sfg.Wordlength.msb <> None)

let test_zero_width_clamp () =
  (* a zero-width range() pins the signal to one value *)
  let g = Sfg.Graph.create () in
  let x = Sfg.Graph.input g "x" ~lo:(-4.0) ~hi:4.0 in
  let s = Sfg.Graph.saturate g ~name:"s" x ~lo:0.5 ~hi:0.5 in
  let y = Sfg.Graph.mul g ~name:"y" s s in
  Sfg.Graph.mark_output g "y" y;
  let r = Sfg.Range_analysis.run g in
  check bool_t "pinned" true (range_is r "s" 0.5 0.5);
  check bool_t "product of pins" true (range_is r "y" 0.25 0.25)

let test_wordlength_rejects_bad_budget () =
  let g = Sfg.Graph.create () in
  let x = Sfg.Graph.input g "x" ~lo:(-1.0) ~hi:1.0 in
  Sfg.Graph.mark_output g "y" (Sfg.Graph.neg g ~name:"y" x);
  check bool_t "zero budget raises" true
    (try
       ignore (Sfg.Wordlength.assign g ~output:"y" ~sigma_budget:0.0);
       false
     with Invalid_argument _ -> true)

(* --- feedback-loop range explosion --------------------------------------- *)

(* gain-1 accumulator: acc' = acc + x diverges, the analysis must
   diagnose the explosion rather than report a bound *)
let accumulator ?clamp () =
  let g = Sfg.Graph.create () in
  let x = Sfg.Graph.input g "x" ~lo:(-1.0) ~hi:1.0 in
  let acc = Sfg.Graph.delay g "acc" in
  let s = Sfg.Graph.add g ~name:"s" acc x in
  let fed =
    match clamp with
    | None -> s
    | Some (lo, hi) -> Sfg.Graph.saturate g ~name:"s_clamped" s ~lo ~hi
  in
  Sfg.Graph.connect_delay g acc fed;
  Sfg.Graph.mark_output g "s" s;
  g

let test_explosion_detected () =
  let g = accumulator () in
  let r = Sfg.Range_analysis.run g in
  check bool_t "accumulator explodes" true
    (List.mem "s" r.Sfg.Range_analysis.exploded
    || List.mem "acc" r.Sfg.Range_analysis.exploded);
  check bool_t "no MSB for exploded node" true
    (Sfg.Range_analysis.msb_of r "s" = None)

let test_explosion_poisons_wordlength () =
  let g = accumulator () in
  let res = Sfg.Wordlength.assign g ~output:"s" ~sigma_budget:1e-3 in
  check bool_t "assignment reports explosion" true
    (res.Sfg.Wordlength.exploded <> []);
  check bool_t "no finite total" true (res.Sfg.Wordlength.total_bits = None)

let test_clamp_remedies_explosion () =
  (* the paper's remedy: a range() annotation inside the loop bounds
     the fixpoint, every node gets a finite format again *)
  let g = accumulator ~clamp:(-8.0, 8.0) () in
  let r = Sfg.Range_analysis.run g in
  check int_t "nothing exploded" 0 (List.length r.Sfg.Range_analysis.exploded);
  check bool_t "loop output bounded" true
    (match Sfg.Range_analysis.range_of r "s" with
    | Some iv ->
        (not (Interval.is_exploded iv)) && Interval.hi iv <= 9.0 +. 1e-9
    | None -> false);
  let res = Sfg.Wordlength.assign g ~output:"s" ~sigma_budget:1e-3 in
  check bool_t "finite total" true (res.Sfg.Wordlength.total_bits <> None)

let suite =
  ( "sfg_edges",
    [
      Alcotest.test_case "zero-width input" `Quick test_zero_width_input;
      Alcotest.test_case "zero constant wordlength" `Quick
        test_zero_constant_wordlength;
      Alcotest.test_case "zero-width clamp" `Quick test_zero_width_clamp;
      Alcotest.test_case "non-positive budget rejected" `Quick
        test_wordlength_rejects_bad_budget;
      Alcotest.test_case "explosion detected" `Quick test_explosion_detected;
      Alcotest.test_case "explosion poisons wordlength" `Quick
        test_explosion_poisons_wordlength;
      Alcotest.test_case "range() remedies explosion" `Quick
        test_clamp_remedies_explosion;
    ] )
