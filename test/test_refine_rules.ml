(* Unit tests: Refine.Msb_rules, Refine.Lsb_rules, Refine.Decision,
   Refine.Report — the §5 refinement rules in isolation. *)

open Fixrefine
open Sim.Ops

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* drive a signal with values and controlled propagated intervals *)
let driven env name samples ~iv =
  let s = Sim.Signal.create env name in
  List.iter
    (fun v -> s <-- Sim.Value.with_range (cst v) (Interval.make (fst iv) (snd iv)))
    samples;
  s

(* --- MSB rules ---------------------------------------------------------- *)

let test_case_a_agreement () =
  let env = Sim.Env.create () in
  let s = driven env "s" [ 0.5; -1.2; 0.9 ] ~iv:(-1.4, 1.4) in
  let d = Refine.Msb_rules.decide s in
  check bool_t "case a" true (d.Refine.Decision.case = Refine.Decision.Agree);
  check int_t "msb 1" 1 d.Refine.Decision.msb_pos;
  check bool_t "non-saturated" true
    (not (Fixpt.Overflow_mode.is_saturating d.Refine.Decision.mode))

let test_case_b_pessimistic_prop () =
  let env = Sim.Env.create () in
  (* stat |v| < 1 (msb 0) but propagation claims ±100 (msb 7): gap >= 4 *)
  let s = driven env "s" [ 0.5; -0.9 ] ~iv:(-100.0, 100.0) in
  let d = Refine.Msb_rules.decide s in
  check bool_t "case b" true
    (d.Refine.Decision.case = Refine.Decision.Prop_pessimistic);
  check bool_t "saturate" true
    (Fixpt.Overflow_mode.is_saturating d.Refine.Decision.mode);
  check int_t "msb from statistics" 0 d.Refine.Decision.msb_pos;
  check bool_t "guard range reported" true (d.Refine.Decision.guard <> None)

let test_case_c_tradeoff () =
  let env = Sim.Env.create () in
  (* stat msb 0, prop msb 2: a moderate gap *)
  let s = driven env "s" [ 0.5; -0.9 ] ~iv:(-3.5, 3.5) in
  let d = Refine.Msb_rules.decide s in
  check bool_t "case c" true (d.Refine.Decision.case = Refine.Decision.Trade_off);
  check int_t "takes propagation msb" 2 d.Refine.Decision.msb_pos

let test_case_c_prefer_saturation () =
  let env = Sim.Env.create () in
  let s = driven env "s" [ 0.5; -0.9 ] ~iv:(-3.5, 3.5) in
  let config =
    { Refine.Msb_rules.default_config with prefer_saturation_on_tradeoff = true }
  in
  let d = Refine.Msb_rules.decide ~config s in
  check int_t "keeps statistic msb" 0 d.Refine.Decision.msb_pos;
  check bool_t "saturates" true
    (Fixpt.Overflow_mode.is_saturating d.Refine.Decision.mode)

let test_explosion_forces_case_b () =
  let env = Sim.Env.create () in
  let s = Sim.Signal.create env "s" in
  s <-- Sim.Value.with_range (cst 0.5) (Interval.make Float.neg_infinity Float.infinity);
  let d = Refine.Msb_rules.decide s in
  check bool_t "case b" true
    (d.Refine.Decision.case = Refine.Decision.Prop_pessimistic);
  check bool_t "no prop msb" true (d.Refine.Decision.prop_msb = None)

let test_explicit_range_decides_saturated () =
  (* Table 1 marks range()-annotated rows "(st)" *)
  let env = Sim.Env.create () in
  let s = driven env "x" [ 0.3 ] ~iv:(-0.5, 0.5) in
  Sim.Signal.range s (-1.5) 1.5;
  let d = Refine.Msb_rules.decide s in
  check bool_t "saturated" true
    (Fixpt.Overflow_mode.is_saturating d.Refine.Decision.mode);
  check int_t "msb of the annotation" 1 d.Refine.Decision.msb_pos

let test_guard_bits () =
  let env = Sim.Env.create () in
  let s = driven env "s" [ 0.9 ] ~iv:(-100.0, 100.0) in
  let config = { Refine.Msb_rules.default_config with guard_bits = 2 } in
  let d = Refine.Msb_rules.decide ~config s in
  check int_t "stat msb + guard" 2 d.Refine.Decision.msb_pos

let test_never_assigned_signal () =
  let env = Sim.Env.create () in
  let s = Sim.Signal.create env "unused" in
  let d = Refine.Msb_rules.decide s in
  check bool_t "default decision exists" true (d.Refine.Decision.msb_pos = 0)

let test_overhead_bits () =
  let mk signal stat prop =
    {
      Refine.Decision.signal;
      msb_pos = prop;
      mode = Fixpt.Overflow_mode.Error;
      case = Refine.Decision.Trade_off;
      stat_msb = Some stat;
      prop_msb = Some prop;
      guard = None;
    }
  in
  let overhead =
    Refine.Msb_rules.overhead_bits_per_signal [ mk "a" 0 1; mk "b" 0 0 ]
  in
  check (Alcotest.float 1e-12) "mean gap" 0.5 overhead

(* --- LSB rules ---------------------------------------------------------- *)

let noisy_signal env name ~sigma_scale =
  let s = Sim.Signal.create env name in
  let rng = Stats.Rng.create ~seed:5 in
  for _ = 1 to 4000 do
    let v = Stats.Rng.uniform rng ~lo:(-1.0) ~hi:1.0 in
    let err = Stats.Rng.uniform_sym rng sigma_scale in
    s <-- Sim.Value.with_range (Sim.Value.with_fl (cst v) (v +. err))
            (Interval.make (-1.0) 1.0)
  done;
  s

let test_sigma_rule_position () =
  (* uniform error ±2^-6: σ = 2^-6/√3; k=1 ⇒ floor(log2 σ) = -7 or -8 *)
  let env = Sim.Env.create () in
  let s = noisy_signal env "s" ~sigma_scale:0.015625 in
  let d = Refine.Lsb_rules.decide s in
  (match d.Refine.Decision.lsb_pos with
  | Some p -> check bool_t "p in {-8,-7}" true (p = -8 || p = -7)
  | None -> Alcotest.fail "expected a position");
  check bool_t "sigma rule" true
    (d.Refine.Decision.origin = Refine.Decision.Sigma_rule)

let test_k_lsb_scales_position () =
  let env = Sim.Env.create () in
  let s = noisy_signal env "s" ~sigma_scale:0.015625 in
  let p k =
    let config = { Refine.Lsb_rules.default_config with k_lsb = k } in
    Option.get (Refine.Lsb_rules.decide ~config s).Refine.Decision.lsb_pos
  in
  check int_t "k=4 two bits coarser" (p 1.0 + 2) (p 4.0)

let test_exact_signal_grid () =
  let env = Sim.Env.create () in
  let s = Sim.Signal.create env "y" in
  for i = 0 to 99 do
    s <-- cst (if i mod 2 = 0 then 1.0 else -1.0)
  done;
  let d = Refine.Lsb_rules.decide s in
  check bool_t "exact" true (d.Refine.Decision.origin = Refine.Decision.Exact_grid);
  check bool_t "lsb 0" true (d.Refine.Decision.lsb_pos = Some 0)

let test_exact_grid_floor_caps () =
  let env = Sim.Env.create () in
  let s = Sim.Signal.create env "c" in
  s <-- cst 0.1;
  let d = Refine.Lsb_rules.decide s in
  check bool_t "capped at -24" true (d.Refine.Decision.lsb_pos = Some (-24))

let test_already_typed_reported () =
  let env = Sim.Env.create () in
  let dt = Fixpt.Dtype.make "t" ~n:7 ~f:5 () in
  let s = Sim.Signal.create env ~dtype:dt "x" in
  s <-- cst 0.3;
  let d = Refine.Lsb_rules.decide s in
  check bool_t "typed origin" true
    (d.Refine.Decision.origin = Refine.Decision.Already_typed);
  check bool_t "reports the type's lsb" true (d.Refine.Decision.lsb_pos = Some (-5))

let test_divergence_detection () =
  let env = Sim.Env.create () in
  let s = Sim.Signal.create env "eta" in
  (* error comparable to the signal: meaningless statistics *)
  for i = 0 to 99 do
    let v = Float.of_int (i mod 3) *. 0.3 in
    s <-- Sim.Value.with_fl (cst v) (v +. 0.8)
  done;
  check bool_t "diverged" true (Refine.Lsb_rules.diverged s);
  let d = Refine.Lsb_rules.decide s in
  check bool_t "no position" true (d.Refine.Decision.lsb_pos = None);
  check bool_t "flagged" true d.Refine.Decision.diverged

let test_overruled_signal_usable () =
  let env = Sim.Env.create ~seed:1 () in
  let s = Sim.Signal.create env "eta" in
  Sim.Signal.error s 0.015625;
  for i = 0 to 999 do
    s <-- cst (Float.of_int (i mod 5) *. 0.2)
  done;
  let d = Refine.Lsb_rules.decide s in
  check bool_t "overruled origin" true
    (d.Refine.Decision.origin = Refine.Decision.Overruled);
  check bool_t "position derived" true (d.Refine.Decision.lsb_pos <> None)

let test_floor_vs_round_recommendation () =
  let env = Sim.Env.create () in
  (* large noise: floor's bias is negligible -> floor recommended *)
  let s = noisy_signal env "s" ~sigma_scale:0.05 in
  let d = Refine.Lsb_rules.decide s in
  check bool_t "floor" true
    (Fixpt.Round_mode.equal d.Refine.Decision.round Fixpt.Round_mode.Floor)

let test_error_halfwidth_paper_example () =
  (* paper: LSB -5 ↔ error(0.0156) *)
  check (Alcotest.float 1e-4) "2^-6" 0.015625
    (Refine.Lsb_rules.error_halfwidth_of_lsb (-5))

(* --- Decision.to_dtype -------------------------------------------------- *)

let msb_d ?(mode = Fixpt.Overflow_mode.Error) msb =
  {
    Refine.Decision.signal = "s";
    msb_pos = msb;
    mode;
    case = Refine.Decision.Agree;
    stat_msb = Some msb;
    prop_msb = Some msb;
    guard = None;
  }

let lsb_d lsb =
  {
    Refine.Decision.signal = "s";
    lsb_pos = lsb;
    round = Fixpt.Round_mode.Round;
    origin = Refine.Decision.Sigma_rule;
    sigma = 0.001;
    mean = 0.0;
    max_abs = 0.002;
    diverged = false;
    loss = Stats.Err_stats.No_loss;
  }

let test_to_dtype_fuses () =
  match Refine.Decision.to_dtype ~msb:(msb_d 1) ~lsb:(lsb_d (Some (-6))) () with
  | Some dt ->
      check int_t "n" 8 (Fixpt.Dtype.n dt);
      check int_t "f" 6 (Fixpt.Dtype.f dt)
  | None -> Alcotest.fail "expected a type"

let test_to_dtype_missing_lsb () =
  check bool_t "no lsb, no type" true
    (Refine.Decision.to_dtype ~msb:(msb_d 1) ~lsb:(lsb_d None) () = None)

let test_to_dtype_inverted () =
  check bool_t "lsb above msb rejected" true
    (Refine.Decision.to_dtype ~msb:(msb_d (-8)) ~lsb:(lsb_d (Some 0)) () = None)

(* --- Report -------------------------------------------------------------- *)

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_report_msb_format () =
  let env = Sim.Env.create () in
  let s = driven env "sig1" [ 0.5; -0.3 ] ~iv:(-1.0, 1.0) in
  Sim.Signal.range s (-1.0) 1.0;
  let rows = Refine.Report.msb_table env in
  let text = Format.asprintf "%a" Refine.Report.pp_msb_table rows in
  check bool_t "header" true (contains "msb" text);
  check bool_t "signal row" true (contains "sig1" text);
  check bool_t "saturation marker" true (contains "(st)" text)

let test_report_lsb_format () =
  let env = Sim.Env.create () in
  let _ = noisy_signal env "n1" ~sigma_scale:0.01 in
  let text =
    Format.asprintf "%a" Refine.Report.pp_lsb_table (Refine.Report.lsb_table env)
  in
  check bool_t "header sigma" true (contains "sigma" text);
  check bool_t "row" true (contains "n1" text)

let test_report_summary () =
  let env = Sim.Env.create () in
  let _ = driven env "a" [ 0.5 ] ~iv:(-1.0, 1.0) in
  let msbs = Refine.Msb_rules.decide_all env in
  let lsbs = Refine.Lsb_rules.decide_all env in
  let s = Refine.Report.summary env msbs lsbs in
  check bool_t "mentions count" true (contains "1 signals" s)

let suite =
  ( "refine-rules",
    [
      Alcotest.test_case "case (a) agreement" `Quick test_case_a_agreement;
      Alcotest.test_case "case (b) pessimistic" `Quick
        test_case_b_pessimistic_prop;
      Alcotest.test_case "case (c) tradeoff" `Quick test_case_c_tradeoff;
      Alcotest.test_case "case (c) saturation pref" `Quick
        test_case_c_prefer_saturation;
      Alcotest.test_case "explosion forces (b)" `Quick
        test_explosion_forces_case_b;
      Alcotest.test_case "explicit range saturates" `Quick
        test_explicit_range_decides_saturated;
      Alcotest.test_case "guard bits" `Quick test_guard_bits;
      Alcotest.test_case "never assigned" `Quick test_never_assigned_signal;
      Alcotest.test_case "overhead bits" `Quick test_overhead_bits;
      Alcotest.test_case "sigma rule position" `Quick test_sigma_rule_position;
      Alcotest.test_case "k_lsb scaling" `Quick test_k_lsb_scales_position;
      Alcotest.test_case "exact grid" `Quick test_exact_signal_grid;
      Alcotest.test_case "exact grid floor" `Quick test_exact_grid_floor_caps;
      Alcotest.test_case "already typed" `Quick test_already_typed_reported;
      Alcotest.test_case "divergence detection" `Quick
        test_divergence_detection;
      Alcotest.test_case "overruled usable" `Quick test_overruled_signal_usable;
      Alcotest.test_case "floor recommendation" `Quick
        test_floor_vs_round_recommendation;
      Alcotest.test_case "error halfwidth" `Quick
        test_error_halfwidth_paper_example;
      Alcotest.test_case "to_dtype fuses" `Quick test_to_dtype_fuses;
      Alcotest.test_case "to_dtype missing lsb" `Quick
        test_to_dtype_missing_lsb;
      Alcotest.test_case "to_dtype inverted" `Quick test_to_dtype_inverted;
      Alcotest.test_case "report msb" `Quick test_report_msb_format;
      Alcotest.test_case "report lsb" `Quick test_report_lsb_format;
      Alcotest.test_case "report summary" `Quick test_report_summary;
    ] )
