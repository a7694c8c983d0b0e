(* Unit tests: Sim.Signal + Sim.Env — the monitored signal objects, the
   clock, and the refinement annotations. *)

open Fixrefine
open Sim.Ops

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let float_t = Alcotest.float 1e-12

let test_comb_assign_immediate () =
  let env = Sim.Env.create () in
  let s = Sim.Signal.create env "s" in
  s <-- cst 1.5;
  check float_t "visible immediately" 1.5 (Sim.Signal.peek_fx s)

let test_reg_assign_staged () =
  let env = Sim.Env.create () in
  let r = Sim.Signal.create_reg env "r" in
  r <-- cst 2.0;
  check float_t "not yet" 0.0 (Sim.Signal.peek_fx r);
  Sim.Env.tick env;
  check float_t "after tick" 2.0 (Sim.Signal.peek_fx r)

let test_reg_holds_without_write () =
  let env = Sim.Env.create () in
  let r = Sim.Signal.create_reg env "r" in
  r <-- cst 3.0;
  Sim.Env.tick env;
  Sim.Env.tick env;
  check float_t "holds" 3.0 (Sim.Signal.peek_fx r)

let test_reg_swap_semantics () =
  (* classic register test: simultaneous exchange *)
  let env = Sim.Env.create () in
  let a = Sim.Signal.create_reg env "a" in
  let b = Sim.Signal.create_reg env "b" in
  a <-- cst 1.0;
  b <-- cst 2.0;
  Sim.Env.tick env;
  a <-- !!b;
  b <-- !!a;
  Sim.Env.tick env;
  check float_t "a took b" 2.0 (Sim.Signal.peek_fx a);
  check float_t "b took old a" 1.0 (Sim.Signal.peek_fx b)

let test_quantize_on_assign () =
  let env = Sim.Env.create () in
  let dt = Fixpt.Dtype.make "t" ~n:4 ~f:2 () in
  let s = Sim.Signal.create env ~dtype:dt "s" in
  s <-- cst 0.6;
  check float_t "fx quantized" 0.5 (Sim.Signal.peek_fx s);
  check float_t "fl keeps reference" 0.6 (Sim.Signal.peek_fl s)

let test_stat_monitor_tracks_ideal () =
  let env = Sim.Env.create () in
  let dt =
    Fixpt.Dtype.make "t" ~n:4 ~f:2 ~overflow:Fixpt.Overflow_mode.Saturate ()
  in
  let s = Sim.Signal.create env ~dtype:dt "s" in
  s <-- cst 5.0;
  (* value saturates to 1.75 but the monitor records the needed range *)
  check float_t "fx saturated" 1.75 (Sim.Signal.peek_fx s);
  (match Sim.Signal.stat_range s with
  | Some (_, hi) -> check float_t "monitor saw 5.0" 5.0 hi
  | None -> Alcotest.fail "no range")

let test_access_and_assign_counts () =
  let env = Sim.Env.create () in
  let s = Sim.Signal.create env "s" in
  s <-- cst 1.0;
  ignore !!s;
  ignore !!s;
  check int_t "assigns" 1 (Sim.Signal.assignments s);
  check int_t "accesses" 2 (Sim.Signal.accesses s)

let test_prop_range_accumulates () =
  let env = Sim.Env.create () in
  let s = Sim.Signal.create env "s" in
  s <-- Sim.Value.with_range (cst 1.0) (Interval.make 0.0 1.0);
  s <-- Sim.Value.with_range (cst (-1.0)) (Interval.make (-2.0) 0.0);
  check bool_t "joined" true
    (Sim.Signal.prop_range s = Some (-2.0, 1.0))

let test_explicit_range_overrides_read () =
  let env = Sim.Env.create () in
  let s = Sim.Signal.create env "s" in
  s <-- Sim.Value.with_range (cst 0.5) (Interval.make (-100.0) 100.0);
  Sim.Signal.range s (-1.5) 1.5;
  check bool_t "read propagates the annotation" true
    (Interval.equal (Sim.Value.iv !!s) (Interval.make (-1.5) 1.5))

let test_typed_unassigned_reads_type_range () =
  let env = Sim.Env.create () in
  let dt = Fixpt.Dtype.make "t" ~n:4 ~f:2 () in
  let s = Sim.Signal.create env ~dtype:dt "s" in
  check bool_t "declared range" true
    (Interval.equal (Sim.Value.iv !!s) (Interval.make (-2.0) 1.75))

let test_saturating_type_clamps_prop () =
  let env = Sim.Env.create () in
  let dt =
    Fixpt.Dtype.make "t" ~n:4 ~f:2 ~overflow:Fixpt.Overflow_mode.Saturate ()
  in
  let s = Sim.Signal.create env ~dtype:dt "s" in
  s <-- Sim.Value.with_range (cst 0.0) (Interval.make (-50.0) 50.0);
  check bool_t "prop clamped by saturation" true
    (Sim.Signal.prop_range s = Some (-2.0, 1.75))

let test_error_injection () =
  let env = Sim.Env.create ~seed:1 () in
  let s = Sim.Signal.create env "s" in
  Sim.Signal.error s 0.25;
  let run = Stats.Running.create () in
  for _ = 1 to 5000 do
    s <-- cst 1.0;
    Stats.Running.add run (Sim.Signal.peek_fl s -. Sim.Signal.peek_fx s)
  done;
  check bool_t "bounded by h" true (Stats.Running.max_abs run <= 0.25);
  check (Alcotest.float 0.01) "sigma h/sqrt3" (0.25 /. sqrt 3.0)
    (Stats.Running.stddev run);
  let errs = Stats.Err_stats.produced (Sim.Signal.err_stats s) in
  check bool_t "recorded as produced error" true
    (Stats.Running.count errs = 5000)

let test_consumed_vs_produced () =
  let env = Sim.Env.create () in
  let dt = Fixpt.Dtype.make "t" ~n:4 ~f:2 () in
  let s = Sim.Signal.create env ~dtype:dt "s" in
  (* incoming value carries consumed error 0.1; quantization adds more *)
  let incoming = Sim.Value.with_fl (cst 0.6) 0.7 in
  s <-- incoming;
  let e = Sim.Signal.err_stats s in
  check (Alcotest.float 1e-9) "consumed" 0.1
    (Stats.Running.max_abs (Stats.Err_stats.consumed e));
  check (Alcotest.float 1e-9) "produced = fl - quantized fx" 0.2
    (Stats.Running.max_abs (Stats.Err_stats.produced e))

let test_overflow_error_policy_raise () =
  let env = Sim.Env.create ~policy:Sim.Env.Raise () in
  let dt =
    Fixpt.Dtype.make "t" ~n:4 ~f:2 ~overflow:Fixpt.Overflow_mode.Error ()
  in
  let s = Sim.Signal.create env ~dtype:dt "s" in
  check bool_t "raises" true
    (try
       s <-- cst 9.0;
       false
     with Sim.Env.Overflow _ -> true)

let test_overflow_counted () =
  let env = Sim.Env.create () in
  let dt =
    Fixpt.Dtype.make "t" ~n:4 ~f:2 ~overflow:Fixpt.Overflow_mode.Error ()
  in
  let s = Sim.Signal.create env ~dtype:dt "s" in
  s <-- cst 9.0;
  s <-- cst 1.0;
  s <-- cst (-9.0);
  check int_t "two overflows" 2 (Sim.Signal.overflows s)

let test_grid_lsb () =
  let env = Sim.Env.create () in
  let s = Sim.Signal.create env "s" in
  s <-- cst 1.0;
  check bool_t "1.0 -> 0" true (Sim.Signal.grid_lsb s = Some 0);
  s <-- cst 0.375;
  check bool_t "0.375 -> -3" true (Sim.Signal.grid_lsb s = Some (-3));
  s <-- cst 4.0;
  check bool_t "coarser value keeps finest" true
    (Sim.Signal.grid_lsb s = Some (-3))

let test_env_reset_preserves_annotations () =
  let env = Sim.Env.create () in
  let s = Sim.Signal.create env "s" in
  Sim.Signal.range s (-1.0) 1.0;
  Sim.Signal.error s 0.1;
  s <-- cst 0.5;
  Sim.Env.reset env;
  check int_t "monitors cleared" 0 (Sim.Signal.assignments s);
  check bool_t "range kept" true (Sim.Signal.explicit_range s <> None);
  check bool_t "error kept" true (Sim.Signal.error_injected s = Some 0.1);
  check float_t "value cleared" 0.0 (Sim.Signal.peek_fx s)

let test_env_reset_hooks_rerun () =
  let env = Sim.Env.create () in
  let s = Sim.Signal.create env "coef" in
  Sim.Env.at_reset env (fun () -> Sim.Signal.init s 0.25);
  check float_t "ran immediately" 0.25 (Sim.Signal.peek_fx s);
  Sim.Env.reset env;
  check float_t "re-initialized" 0.25 (Sim.Signal.peek_fx s);
  check int_t "one init assignment" 1 (Sim.Signal.assignments s)

let test_env_find () =
  let env = Sim.Env.create () in
  let _a = Sim.Signal.create env "alpha" in
  check bool_t "found" true (Sim.Env.find env "alpha" <> None);
  check bool_t "missing" true (Sim.Env.find env "beta" = None)

let test_env_signal_order () =
  let env = Sim.Env.create () in
  let _a = Sim.Signal.create env "a" in
  let _b = Sim.Signal.create env "b" in
  check bool_t "declaration order" true
    (List.map Sim.Signal.name (Sim.Env.signals env) = [ "a"; "b" ])

let suite =
  ( "signal-env",
    [
      Alcotest.test_case "comb immediate" `Quick test_comb_assign_immediate;
      Alcotest.test_case "reg staged" `Quick test_reg_assign_staged;
      Alcotest.test_case "reg holds" `Quick test_reg_holds_without_write;
      Alcotest.test_case "reg swap" `Quick test_reg_swap_semantics;
      Alcotest.test_case "quantize on assign" `Quick test_quantize_on_assign;
      Alcotest.test_case "stat monitors ideal value" `Quick
        test_stat_monitor_tracks_ideal;
      Alcotest.test_case "counts" `Quick test_access_and_assign_counts;
      Alcotest.test_case "prop accumulates" `Quick
        test_prop_range_accumulates;
      Alcotest.test_case "explicit range overrides" `Quick
        test_explicit_range_overrides_read;
      Alcotest.test_case "typed unassigned reads type range" `Quick
        test_typed_unassigned_reads_type_range;
      Alcotest.test_case "saturating type clamps prop" `Quick
        test_saturating_type_clamps_prop;
      Alcotest.test_case "error injection" `Quick test_error_injection;
      Alcotest.test_case "consumed vs produced" `Quick
        test_consumed_vs_produced;
      Alcotest.test_case "overflow raise policy" `Quick
        test_overflow_error_policy_raise;
      Alcotest.test_case "overflow counted" `Quick test_overflow_counted;
      Alcotest.test_case "grid lsb" `Quick test_grid_lsb;
      Alcotest.test_case "reset preserves annotations" `Quick
        test_env_reset_preserves_annotations;
      Alcotest.test_case "reset hooks rerun" `Quick
        test_env_reset_hooks_rerun;
      Alcotest.test_case "env find" `Quick test_env_find;
      Alcotest.test_case "env order" `Quick test_env_signal_order;
    ] )
