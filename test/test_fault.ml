(* Unit tests: the fault-injection layer — plan validation, pure-hash
   schedule replay, plan JSON round-trips, SEU bitflip validity,
   stimulus corruption/starvation, collect-policy degradation, monitor
   poison-resistance, widening caps, and the sweep quarantine's
   scheduling-independence contract (jobs=1 and jobs=2 must render
   byte-identical partial reports). *)

open Fixrefine

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let float_t eps = Alcotest.float eps

(* --- Plan validation ----------------------------------------------------- *)

let test_plan_validation () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  check bool_t "rate > 1 rejected" true
    (bad (fun () -> Fault.Plan.make ~nan_rate:1.5 ()));
  check bool_t "negative rate rejected" true
    (bad (fun () -> Fault.Plan.make ~bitflip_rate:(-0.1) ()));
  check bool_t "nan extreme_mag rejected" true
    (bad (fun () -> Fault.Plan.make ~extreme_mag:Float.nan ()));
  check bool_t "negative starve_after rejected" true
    (bad (fun () -> Fault.Plan.make ~starve_after:(-1) ()));
  check bool_t "boundary rates accepted" true
    (ignore (Fault.Plan.make ~nan_rate:0.0 ~inf_rate:1.0 ()); true)

let test_plan_targets () =
  let p = Fault.Plan.make ~targets:[ "x"; "acc" ] () in
  check bool_t "listed signal targeted" true (Fault.Plan.is_target p "x");
  check bool_t "other signal not targeted" false (Fault.Plan.is_target p "y");
  check bool_t "empty targets mean all" true
    (Fault.Plan.is_target (Fault.Plan.make ()) "anything")

(* --- pure-hash schedule -------------------------------------------------- *)

let test_schedule_replay () =
  let mk () =
    Fault.Plan.make ~seed:7 ~bitflip_rate:0.3 ~force_overflow_rate:0.1 ()
  in
  let signals = [ "a"; "b"; "c" ] in
  let s1 = Fault.Plan.schedule (mk ()) ~signals ~cycles:50 () in
  let s2 = Fault.Plan.schedule (mk ()) ~signals ~cycles:50 () in
  check bool_t "nonempty" true (s1 <> []);
  check bool_t "identical across plan instances" true (s1 = s2);
  let s3 =
    Fault.Plan.schedule
      (Fault.Plan.make ~seed:8 ~bitflip_rate:0.3 ~force_overflow_rate:0.1 ())
      ~signals ~cycles:50 ()
  in
  check bool_t "different seed, different schedule" true (s1 <> s3);
  let tagged = Fault.Plan.schedule (mk ()) ~tag:"1" ~signals ~cycles:50 () in
  check bool_t "different tag, different schedule" true (s1 <> tagged)

let prop_fires_pure =
  QCheck2.Test.make ~name:"fires is a pure function of its coordinate"
    ~count:300
    QCheck2.Gen.(triple (int_range 0 1000) (int_range 0 200) (float_range 0.0 1.0))
    (fun (seed, index, rate) ->
      let p1 = Fault.Plan.make ~seed () in
      let p2 = Fault.Plan.make ~seed () in
      Fault.Plan.fires p1 ~stream:"s" ~key:"k" ~index ~rate
      = Fault.Plan.fires p2 ~stream:"s" ~key:"k" ~index ~rate)

let prop_fires_rate_edges =
  QCheck2.Test.make ~name:"rate 0 never fires, rate 1 always fires" ~count:300
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 0 200))
    (fun (seed, index) ->
      let p = Fault.Plan.make ~seed () in
      (not (Fault.Plan.fires p ~stream:"s" ~key:"k" ~index ~rate:0.0))
      && Fault.Plan.fires p ~stream:"s" ~key:"k" ~index ~rate:1.0)

(* --- plan JSON ----------------------------------------------------------- *)

let test_plan_json_roundtrip () =
  let p =
    Fault.Plan.make ~seed:99 ~nan_rate:0.01 ~inf_rate:0.02 ~denormal_rate:0.03
      ~extreme_rate:0.04 ~extreme_mag:1e6 ~bitflip_rate:0.05
      ~force_overflow_rate:0.06 ~starve_after:100
      ~targets:[ "x"; "v[3]" ] ~on_overflow:Fault.Plan.Force_collect ()
  in
  match Fault.Plan.of_json (Fault.Plan.to_json p) with
  | Ok p' -> check bool_t "round-trips structurally" true (p' = p)
  | Error e -> Alcotest.failf "round-trip failed: %s" e

(* Plan JSON is folded into cache keys ({!Serve.Codec.context}), so
   its bytes are pinned. *)
let test_plan_json_pinned () =
  let p =
    Fault.Plan.make ~seed:(-7) ~nan_rate:0.01 ~denormal_rate:0.5
      ~extreme_rate:1.0 ~bitflip_rate:(1.0 /. 3.0) ~force_overflow_rate:1e-7
      ~starve_after:100
      ~targets:[ "x"; "v[3]"; "q \"z\"" ]
      ~on_overflow:Fault.Plan.Force_collect ()
  in
  check Alcotest.string "plan bytes"
    "{\"seed\": -7, \"nan_rate\": 0.01, \"inf_rate\": 0, \"denormal_rate\": \
     0.5, \"extreme_rate\": 1, \"extreme_mag\": 1e+30, \"bitflip_rate\": \
     0.33333333333333331, \"force_overflow_rate\": 1e-07, \"starve_after\": \
     100, \"targets\": [\"x\", \"v[3]\", \"q \\\"z\\\"\"], \"on_overflow\": \
     \"collect\"}"
    (Fault.Plan.to_json p);
  check Alcotest.string "default plan bytes"
    "{\"seed\": 0, \"nan_rate\": 0, \"inf_rate\": 0, \"denormal_rate\": 0, \
     \"extreme_rate\": 0, \"extreme_mag\": 1e+30, \"bitflip_rate\": 0, \
     \"force_overflow_rate\": 0, \"starve_after\": null, \"targets\": [], \
     \"on_overflow\": \"keep\"}"
    (Fault.Plan.to_json Fault.Plan.none)

let test_plan_json_errors () =
  let bad s =
    match Fault.Plan.of_json s with Ok _ -> false | Error _ -> true
  in
  check bool_t "garbage rejected" true (bad "not json");
  check bool_t "unknown key rejected" true (bad "{\"sneed\": 1}");
  check bool_t "out-of-range rate rejected" true (bad "{\"nan_rate\": 2.0}");
  check bool_t "missing array comma rejected" true
    (bad "{\"targets\": [\"a\" \"b\"]}");
  check bool_t "trailing array comma rejected" true
    (bad "{\"targets\": [\"a\",]}");
  check bool_t "trailing object comma rejected" true (bad "{\"seed\": 1,}");
  check bool_t "hex number rejected" true (bad "{\"seed\": 0x10}");
  check bool_t "leading zero rejected" true (bad "{\"seed\": 010}");
  check bool_t "bare trailing dot rejected" true (bad "{\"nan_rate\": 1.}");
  check bool_t "fractional seed rejected" true (bad "{\"seed\": 1.5}");
  check bool_t "duplicate key rejected" true
    (bad "{\"seed\": 1, \"seed\": 2}");
  check bool_t "empty object is the default plan" true
    (Fault.Plan.of_json "{}" = Ok (Fault.Plan.make ()))

let prop_plan_json_roundtrip =
  QCheck2.Test.make ~name:"plan JSON round-trips for any rates and targets"
    ~count:200
    QCheck2.Gen.(
      pair
        (quad (int_range (-10000) 10000) (float_range 0.0 1.0)
           (float_range 0.0 1.0) (float_range 1.0 1e20))
        (list_size (int_range 0 4) (string_size ~gen:char (int_range 0 8))))
    (fun ((seed, r1, r2, mag), targets) ->
      let p =
        Fault.Plan.make ~seed ~nan_rate:r1 ~bitflip_rate:r2 ~extreme_mag:mag
          ~targets ~on_overflow:Fault.Plan.Force_raise ()
      in
      Fault.Plan.of_json (Fault.Plan.to_json p) = Ok p)

(* --- SEU bitflip --------------------------------------------------------- *)

let seu_dt = Fixpt.Dtype.make "T_seu" ~n:8 ~f:6 ()

let prop_bitflip_representable =
  QCheck2.Test.make ~name:"flipped value is representable" ~count:500
    QCheck2.Gen.(pair (float_range (-1.9) 1.9) (int_range 0 7))
    (fun (v, bit) ->
      let on_grid = Fixpt.Quantize.cast seu_dt v in
      let flipped = Fault.Inject.flip_bit seu_dt ~bit on_grid in
      Fixpt.Qformat.is_exact (Fixpt.Dtype.fmt seu_dt) flipped)

let prop_bitflip_involution =
  QCheck2.Test.make ~name:"flipping the same bit twice restores the value"
    ~count:500
    QCheck2.Gen.(pair (float_range (-1.9) 1.9) (int_range 0 7))
    (fun (v, bit) ->
      let on_grid = Fixpt.Quantize.cast seu_dt v in
      let twice =
        Fault.Inject.flip_bit seu_dt ~bit
          (Fault.Inject.flip_bit seu_dt ~bit on_grid)
      in
      twice = on_grid)

let test_bitflip_changes_value () =
  let on_grid = Fixpt.Quantize.cast seu_dt 0.5 in
  check bool_t "flip changes the value" true
    (Fault.Inject.flip_bit seu_dt ~bit:0 on_grid <> on_grid);
  check bool_t "bit out of range rejected" true
    (try
       ignore (Fault.Inject.flip_bit seu_dt ~bit:8 0.0);
       false
     with Invalid_argument _ -> true)

(* --- stimulus corruption / starvation ------------------------------------ *)

let test_channel_starvation_degrade () =
  let plan = Fault.Plan.make ~starve_after:5 () in
  let ch = Sim.Channel.of_fun "x" (fun i -> float_of_int (i + 1)) in
  Fault.Inject.wrap_channel plan ch;
  let samples = List.init 8 (fun _ -> Sim.Channel.get ch) in
  check bool_t "first five flow through" true
    (List.filteri (fun i _ -> i < 5) samples = [ 1.0; 2.0; 3.0; 4.0; 5.0 ]);
  check bool_t "starved reads degrade to silence" true
    (List.filteri (fun i _ -> i >= 5) samples = [ 0.0; 0.0; 0.0 ])

let test_channel_starvation_strict () =
  let plan = Fault.Plan.make ~starve_after:2 () in
  let ch = Sim.Channel.of_fun "x" (fun i -> float_of_int i) in
  Fault.Inject.wrap_channel plan ~strict:true ch;
  ignore (Sim.Channel.get ch);
  ignore (Sim.Channel.get ch);
  check bool_t "strict starvation raises Empty" true
    (try
       ignore (Sim.Channel.get ch);
       false
     with Sim.Channel.Empty "x" -> true)

let test_channel_nan_corruption () =
  let plan = Fault.Plan.make ~nan_rate:1.0 () in
  let ch = Sim.Channel.of_fun "x" (fun _ -> 0.25) in
  Fault.Inject.wrap_channel plan ch;
  check bool_t "rate-1 NaN corrupts every sample" true
    (List.init 16 (fun _ -> Sim.Channel.get ch)
    |> List.for_all Float.is_nan)

let test_channel_corruption_deterministic () =
  let mk () =
    let plan =
      Fault.Plan.make ~seed:3 ~extreme_rate:0.5 ~extreme_mag:1e9 ()
    in
    let ch = Sim.Channel.of_fun "x" (fun i -> float_of_int i) in
    Fault.Inject.wrap_channel plan ch;
    List.init 64 (fun _ -> Sim.Channel.get ch)
  in
  check bool_t "same plan, same corrupted stream" true (mk () = mk ());
  check bool_t "some samples corrupted" true
    (List.exists (fun v -> Float.abs v >= 1e9) (mk ()))

let test_wrap_channel_requires_producer () =
  let ch = Sim.Channel.create "plain" in
  check bool_t "unbacked channel rejected" true
    (try
       Fault.Inject.wrap_channel (Fault.Plan.make ()) ch;
       false
     with Invalid_argument _ -> true)

(* --- monitors shrug off non-finite samples ------------------------------- *)

let gen_poison =
  QCheck2.Gen.(
    list_size (int_range 1 50)
      (oneof
         [
           float_range (-100.0) 100.0;
           oneofl [ Float.nan; Float.infinity; Float.neg_infinity ];
         ]))

let prop_running_ignores_poison =
  QCheck2.Test.make ~name:"Running ignores NaN and infinities" ~count:300
    gen_poison (fun samples ->
      let r = Stats.Running.create () in
      List.iter (fun v -> Stats.Running.add r v) samples;
      let finite = List.filter Float.is_finite samples in
      let r' = Stats.Running.create () in
      List.iter (fun v -> Stats.Running.add r' v) finite;
      Stats.Running.count r = Stats.Running.count r'
      && (finite = [] || Float.is_finite (Stats.Running.mean r))
      && Stats.Running.mean r = Stats.Running.mean r')

let prop_sqnr_ignores_poison =
  QCheck2.Test.make ~name:"Sqnr ignores non-finite pairs" ~count:300
    gen_poison (fun samples ->
      let s = Stats.Sqnr.create () in
      List.iter (fun v -> Stats.Sqnr.add s ~reference:v ~actual:(v *. 0.99))
        samples;
      not (Float.is_nan (Stats.Sqnr.db s)))

(* --- widening caps (graceful range degradation) -------------------------- *)

let test_widen_within () =
  let w = Interval.make (-4.0) 4.0 in
  let a = Interval.make (-1.0) 1.0 in
  let growing = Interval.make (-1.0) 2.0 in
  let capped = Interval.widen_within ~within:w a growing in
  (match Interval.bounds capped with
  | Some (lo, hi) ->
      check (float_t 0.0) "lo kept" (-1.0) lo;
      check (float_t 0.0) "hi capped to declared bound" 4.0 hi
  | None -> Alcotest.fail "capped interval is empty");
  check bool_t "empty within falls back to plain widen" true
    (Interval.widen_within ~within:Interval.empty a growing
    = Interval.widen a growing)

let test_range_analysis_degraded () =
  let exploding () =
    let g = Sfg.Graph.create () in
    let c = Dsp.Biquad.resonator ~r:0.99 ~theta:0.3 in
    let _ = Dsp.Biquad.to_sfg ~input_range:(-1.0, 1.0) c g in
    g
  in
  let r1 = Sfg.Range_analysis.run (exploding ()) in
  check bool_t "undeclared feedback explodes" true
    (r1.Sfg.Range_analysis.exploded <> []);
  check bool_t "nothing degraded without declarations" true
    (r1.Sfg.Range_analysis.degraded = []);
  let declared name =
    if List.mem name r1.Sfg.Range_analysis.exploded then
      Some (Interval.make (-20.0) 20.0)
    else None
  in
  let r2 = Sfg.Range_analysis.run ~declared (exploding ()) in
  check bool_t "declared bounds absorb the explosion" true
    (r2.Sfg.Range_analysis.exploded = []);
  check bool_t "capped nodes reported as degraded" true
    (r2.Sfg.Range_analysis.degraded <> [])

(* --- collect policy: degrade, don't die ---------------------------------- *)

let collect_plan =
  lazy
    (Fault.Plan.make ~seed:42 ~force_overflow_rate:0.002
       ~on_overflow:Fault.Plan.Force_collect ())

let test_collect_policy_degrades () =
  let workload = Sweep.Workload.fir ~n:128 () in
  let inst = workload.Sweep.Workload.make_instance () in
  let env = inst.Sweep.Workload.env in
  let ctr = Trace.Counters.create () in
  Sim.Env.set_sink env (Trace.Counters.sink ctr);
  Fault.Inject.arm_env (Lazy.force collect_plan) env;
  inst.Sweep.Workload.design.Refine.Flow.reset ();
  inst.Sweep.Workload.design.Refine.Flow.run ();
  Sim.Env.clear_sink env;
  let faults = Sim.Env.collected_faults env in
  check bool_t "run completed with faults collected" true (faults <> []);
  check int_t "collected_count agrees" (List.length faults)
    (Sim.Env.collected_count env);
  check bool_t "records carry signal and time" true
    (List.for_all
       (fun (f : Sim.Env.fault_record) ->
         f.Sim.Env.f_signal <> "" && f.Sim.Env.f_time >= 0)
       faults);
  check bool_t "fault counters tallied" true (Trace.Counters.total_faults ctr > 0);
  let before = Sim.Env.collected_count env in
  check bool_t "some faults seen" true (before > 0);
  Sim.Env.reset env;
  check int_t "reset clears collected faults" 0 (Sim.Env.collected_count env)

(* --- faulted sweep: partial but deterministic ---------------------------- *)

let faulted_sweep ~jobs =
  let plan =
    Fault.Plan.make ~seed:42 ~bitflip_rate:0.002 ~force_overflow_rate:0.0001
      ~on_overflow:Fault.Plan.Force_raise ()
  in
  let workload = Fault.Inject.workload plan (Sweep.Workload.fir ~n:128 ()) in
  let specs = workload.Sweep.Workload.specs in
  let generator =
    Sweep.Generator.grid ~specs ~f_min:4 ~f_max:7 ~seeds:[ 0; 1; 2; 3 ]
  in
  Sweep.Pool.run ~jobs ~workload ~generator ()

let test_faulted_sweep_jobs_deterministic () =
  let sequential = faulted_sweep ~jobs:1 in
  let parallel = faulted_sweep ~jobs:2 in
  check bool_t "quarantine nonempty" true
    (sequential.Sweep.Report.failures <> []);
  check bool_t "still evaluates the healthy candidates" true
    (sequential.Sweep.Report.entries <> []);
  check bool_t "every quarantined candidate was retried" true
    (List.for_all
       (fun (f : Sweep.Report.failure) -> f.Sweep.Report.attempts = 2)
       sequential.Sweep.Report.failures);
  check Alcotest.string "partial reports byte-identical at jobs 1 vs 2"
    (Sweep.Report.to_json sequential)
    (Sweep.Report.to_json parallel)

(* --- faulted workloads stay off the compiled path and its cache ---------- *)

(* Faults are injected at the interpreter's assignment sites only, so
   the fault wrapper must strip the compiled evaluator; the pool
   consults an evaluation cache on that path alone, so a faulted sweep
   leaves the cache untouched. *)
let test_faulted_sweep_bypasses_cache () =
  let plan = Fault.Plan.make ~seed:42 ~bitflip_rate:0.002 () in
  let workload = Fault.Inject.workload plan (Sweep.Workload.fir ~n:128 ()) in
  let inst = workload.Sweep.Workload.make_instance () in
  check bool_t "faulted instance has no compiled path" true
    (Option.is_none inst.Sweep.Workload.compiled);
  let cache = Serve.Cache.create () in
  let generator =
    Sweep.Generator.grid ~specs:workload.Sweep.Workload.specs ~f_min:4
      ~f_max:5 ~seeds:[ 0; 1 ]
  in
  let report =
    Sweep.Pool.run ~cache:(Serve.Codec.eval_cache cache) ~workload ~generator
      ()
  in
  check bool_t "candidates evaluated" true
    (report.Sweep.Report.entries <> []);
  let s = Serve.Cache.stats cache in
  check int_t "no cache hits" 0 s.Serve.Cache.hits;
  check int_t "no cache misses" 0 s.Serve.Cache.misses;
  check int_t "no cache inserts" 0 s.Serve.Cache.inserts

let suite =
  ( "fault",
    [
      Alcotest.test_case "plan validation" `Quick test_plan_validation;
      Alcotest.test_case "plan targets" `Quick test_plan_targets;
      Alcotest.test_case "schedule replay" `Quick test_schedule_replay;
      Test_support.Qseed.to_alcotest prop_fires_pure;
      Test_support.Qseed.to_alcotest prop_fires_rate_edges;
      Alcotest.test_case "plan JSON roundtrip" `Quick test_plan_json_roundtrip;
      Alcotest.test_case "plan JSON pinned" `Quick test_plan_json_pinned;
      Alcotest.test_case "plan JSON errors" `Quick test_plan_json_errors;
      Test_support.Qseed.to_alcotest prop_plan_json_roundtrip;
      Test_support.Qseed.to_alcotest prop_bitflip_representable;
      Test_support.Qseed.to_alcotest prop_bitflip_involution;
      Alcotest.test_case "bitflip changes value" `Quick
        test_bitflip_changes_value;
      Alcotest.test_case "starvation degrades" `Quick
        test_channel_starvation_degrade;
      Alcotest.test_case "starvation strict" `Quick
        test_channel_starvation_strict;
      Alcotest.test_case "NaN corruption" `Quick test_channel_nan_corruption;
      Alcotest.test_case "corruption deterministic" `Quick
        test_channel_corruption_deterministic;
      Alcotest.test_case "wrap needs producer" `Quick
        test_wrap_channel_requires_producer;
      Test_support.Qseed.to_alcotest prop_running_ignores_poison;
      Test_support.Qseed.to_alcotest prop_sqnr_ignores_poison;
      Alcotest.test_case "widen_within caps" `Quick test_widen_within;
      Alcotest.test_case "range analysis degraded" `Quick
        test_range_analysis_degraded;
      Alcotest.test_case "collect policy degrades" `Quick
        test_collect_policy_degrades;
      Alcotest.test_case "faulted sweep determinism" `Quick
        test_faulted_sweep_jobs_deterministic;
      Alcotest.test_case "faulted sweep bypasses the cache" `Quick
        test_faulted_sweep_bypasses_cache;
    ] )
