(* Unit + property tests: Stats — Rng, Running, Err_stats, Sqnr. *)

open Fixrefine.Stats

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let float_t eps = Alcotest.float eps

(* --- Rng --------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    check (float_t 0.0) "same stream" (Rng.float a) (Rng.float b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  check bool_t "different streams" true (Rng.float a <> Rng.float b)

let test_rng_float_range () =
  let r = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Rng.float r in
    check bool_t "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_uniform_sym () =
  let r = Rng.create ~seed:9 in
  let run = Running.create () in
  for _ = 1 to 20_000 do
    Running.add run (Rng.uniform_sym r 0.5)
  done;
  check (float_t 0.01) "mean ~0" 0.0 (Running.mean run);
  (* sigma of U(-h,h) is h/sqrt 3 *)
  check (float_t 0.01) "sigma h/sqrt3" (0.5 /. sqrt 3.0) (Running.stddev run);
  check bool_t "bounded" true (Running.max_abs run <= 0.5)

let test_rng_gauss_moments () =
  let g = Rng.gauss_state (Rng.create ~seed:3) in
  let run = Running.create () in
  for _ = 1 to 50_000 do
    Running.add run (Rng.gauss g)
  done;
  check (float_t 0.02) "mean" 0.0 (Running.mean run);
  check (float_t 0.02) "sigma" 1.0 (Running.stddev run)

let test_rng_split_independent () =
  let parent = Rng.create ~seed:5 in
  let child = Rng.split parent in
  check bool_t "distinct" true (Rng.float parent <> Rng.float child)

let test_rng_pam2 () =
  let r = Rng.create ~seed:17 in
  for _ = 1 to 100 do
    let v = Rng.pam2 r in
    check bool_t "pm1" true (v = 1.0 || v = -1.0)
  done

let test_rng_pam4 () =
  let r = Rng.create ~seed:23 in
  let seen = Hashtbl.create 4 in
  for _ = 1 to 1000 do
    Hashtbl.replace seen (Rng.pam ~m:4 r) ()
  done;
  check int_t "4 levels" 4 (Hashtbl.length seen);
  Hashtbl.iter (fun v () -> check bool_t "normalized" true (Float.abs v <= 1.0)) seen

let test_rng_int_bounds () =
  let r = Rng.create ~seed:29 in
  for _ = 1 to 1000 do
    let v = Rng.int r 7 in
    check bool_t "in [0,7)" true (v >= 0 && v < 7)
  done

(* --- Running ----------------------------------------------------------- *)

let test_running_basic () =
  let r = Running.create () in
  List.iter (Running.add r) [ 1.0; 2.0; 3.0; 4.0 ];
  check int_t "count" 4 (Running.count r);
  check (float_t 1e-12) "mean" 2.5 (Running.mean r);
  check (float_t 1e-12) "min" 1.0 (Running.min_value r);
  check (float_t 1e-12) "max" 4.0 (Running.max_value r);
  check (float_t 1e-12) "max_abs" 4.0 (Running.max_abs r);
  check (float_t 1e-12) "population variance" 1.25 (Running.variance r);
  check (float_t 1e-12) "sample variance" (5.0 /. 3.0)
    (Running.sample_variance r)

let test_running_empty () =
  let r = Running.create () in
  check bool_t "empty" true (Running.is_empty r);
  check (float_t 0.0) "mean 0" 0.0 (Running.mean r);
  check bool_t "no range" true (Running.range r = None)

let test_running_nan_ignored () =
  let r = Running.create () in
  Running.add r Float.nan;
  Running.add r 1.0;
  check int_t "one sample" 1 (Running.count r)

let test_running_reset () =
  let r = Running.create () in
  Running.add r 5.0;
  Running.reset r;
  check bool_t "empty after reset" true (Running.is_empty r)

let prop_running_matches_direct =
  QCheck2.Test.make ~name:"welford matches direct computation" ~count:300
    QCheck2.Gen.(list_size (int_range 1 50) (float_range (-100.0) 100.0))
    (fun xs ->
      let r = Running.create () in
      List.iter (Running.add r) xs;
      let n = Float.of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0.0 xs /. n in
      let var =
        List.fold_left (fun a x -> a +. ((x -. mean) ** 2.0)) 0.0 xs /. n
      in
      Float.abs (Running.mean r -. mean) < 1e-9 *. (1.0 +. Float.abs mean)
      && Float.abs (Running.variance r -. var) < 1e-6 *. (1.0 +. var))

let prop_merge_equals_concat =
  QCheck2.Test.make ~name:"merge equals concatenation" ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 30) (float_range (-10.0) 10.0))
        (list_size (int_range 1 30) (float_range (-10.0) 10.0)))
    (fun (xs, ys) ->
      let ra = Running.create () and rb = Running.create () in
      List.iter (Running.add ra) xs;
      List.iter (Running.add rb) ys;
      let rc = Running.create () in
      List.iter (Running.add rc) (xs @ ys);
      let m = Running.merge ra rb in
      Running.count m = Running.count rc
      && Float.abs (Running.mean m -. Running.mean rc) < 1e-9
      && Float.abs (Running.variance m -. Running.variance rc) < 1e-6)

(* --- Err_stats --------------------------------------------------------- *)

let test_err_stats_record () =
  let e = Err_stats.create () in
  Err_stats.record e ~consumed:0.01 ~produced:0.02;
  Err_stats.record e ~consumed:(-0.01) ~produced:(-0.02);
  check int_t "count" 2 (Err_stats.count e);
  check (float_t 1e-12) "consumed sigma" 0.01
    (Running.stddev (Err_stats.consumed e));
  check (float_t 1e-12) "produced sigma" 0.02
    (Running.stddev (Err_stats.produced e))

let test_err_loss_verdicts () =
  let quantizing = Err_stats.create () in
  for i = 1 to 100 do
    let s = if i mod 2 = 0 then 1.0 else -1.0 in
    Err_stats.record quantizing ~consumed:(0.001 *. s) ~produced:(0.01 *. s)
  done;
  check bool_t "loss detected" true
    (Err_stats.loss_verdict quantizing = Err_stats.Quantization_loss);
  let neutral = Err_stats.create () in
  for i = 1 to 100 do
    let s = if i mod 2 = 0 then 1.0 else -1.0 in
    Err_stats.record neutral ~consumed:(0.01 *. s) ~produced:(0.01 *. s)
  done;
  check bool_t "no loss" true (Err_stats.loss_verdict neutral = Err_stats.No_loss);
  let gain = Err_stats.create () in
  for i = 1 to 100 do
    let s = if i mod 2 = 0 then 1.0 else -1.0 in
    Err_stats.record gain ~consumed:(0.01 *. s) ~produced:(0.001 *. s)
  done;
  check bool_t "feedback gain" true
    (Err_stats.loss_verdict gain = Err_stats.Feedback_gain)

let test_err_precision_of () =
  let e = Err_stats.create () in
  check bool_t "no error = None" true (Err_stats.produced_precision e = None);
  for i = 1 to 1000 do
    let s = if i mod 2 = 0 then 1.0 else -1.0 in
    Err_stats.record e ~consumed:0.0 ~produced:(0.0078125 *. s)
  done;
  (match Err_stats.produced_precision e with
  | Some p -> check int_t "position of 2^-7 noise" (-7) p
  | None -> Alcotest.fail "expected a precision")

let test_err_precision_bad_k () =
  let r = Running.create () in
  Running.add r 0.25;
  let raises k =
    try
      ignore (Err_stats.precision_of ~k r);
      false
    with Invalid_argument _ -> true
  in
  check bool_t "k = 0 raises" true (raises 0.0);
  check bool_t "k < 0 raises" true (raises (-2.0));
  check bool_t "k nan raises" true (raises Float.nan);
  check bool_t "k infinite raises" true (raises Float.infinity);
  (* the guard fires even on the identically-zero population *)
  check bool_t "bad k beats the None path" true
    (try
       ignore (Err_stats.precision_of ~k:(-1.0) (Running.create ()));
       false
     with Invalid_argument _ -> true)

let test_err_precision_constant_error () =
  (* σ = 0 but max_abs > 0: a pure DC offset (e.g. floor bias on a
     constant signal).  The magnitude stands in for σ. *)
  let r = Running.create () in
  for _ = 1 to 50 do
    Running.add r (-0.125)
  done;
  check (float_t 0.0) "sigma is zero" 0.0 (Running.stddev r);
  (match Err_stats.precision_of r with
  | Some p -> check int_t "constant 2^-3 error" (-3) p
  | None -> Alcotest.fail "constant error must have a precision");
  (* extreme products clamp to the float exponent range instead of
     truncating an infinity *)
  let big = Running.create () in
  Running.add big 1e308;
  Running.add big (-1e308);
  (match Err_stats.precision_of ~k:1e30 big with
  | Some p -> check int_t "overflowing k*s clamps" 1023 p
  | None -> Alcotest.fail "expected a precision");
  let tiny = Running.create () in
  Running.add tiny Float.min_float;
  (match Err_stats.precision_of ~k:1e-300 tiny with
  | Some p -> check bool_t "underflowing k*s clamps" true (p >= -1074)
  | None -> Alcotest.fail "expected a precision")

(* §5.2 σ-rule: the returned position p brackets the target step,
   2^p <= k·σ < 2^(p+1) (σ standing in for max_abs on constant
   errors).  Tolerant comparison absorbs log2 rounding at power-of-two
   boundaries. *)
let prop_precision_sigma_rule =
  QCheck2.Test.make ~name:"precision_of brackets k*sigma (sigma-rule)"
    ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_range 2 60) (float_range (-50.0) 50.0))
        (float_range 0.125 8.0))
    (fun (xs, k) ->
      let r = Running.create () in
      List.iter (Running.add r) xs;
      let sigma = Running.stddev r in
      let m = Running.max_abs r in
      match Err_stats.precision_of ~k r with
      | None -> sigma = 0.0 && m = 0.0
      | Some p ->
          let s = if sigma > 0.0 then sigma else m in
          let step = 2.0 ** Float.of_int p in
          let tol = 1.0 +. 1e-9 in
          step <= k *. s *. tol && k *. s < 2.0 *. step *. tol)

(* --- Rng uniformity: a 10-bin histogram of Rng.float ------------------- *)

let test_histogram_chi_square () =
  let bins = Array.make 10 0 in
  let r = Rng.create ~seed:77 in
  for _ = 1 to 10_000 do
    let i = min 9 (Float.to_int (Rng.float r *. 10.0)) in
    bins.(i) <- bins.(i) + 1
  done;
  let expected = 1_000.0 in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = Float.of_int c -. expected in
        acc +. (d *. d /. expected))
      0.0 bins
  in
  (* chi-square with 9 dof: stay under a generous 99.9% bound *)
  check bool_t "uniformish" true (chi2 < 30.0)

(* --- Sqnr -------------------------------------------------------------- *)

let test_sqnr_known_ratio () =
  (* signal 1.0, error 0.01 -> 40 dB *)
  let t = Sqnr.create () in
  for _ = 1 to 100 do
    Sqnr.add t ~reference:1.0 ~actual:0.99
  done;
  check (float_t 1e-9) "40 dB" 40.0 (Sqnr.db t)

let test_sqnr_no_noise () =
  let t = Sqnr.create () in
  Sqnr.add t ~reference:1.0 ~actual:1.0;
  check bool_t "infinite" true (Sqnr.db t = Float.infinity)

let test_sqnr_of_arrays () =
  let reference = [| 1.0; -1.0; 1.0 |] in
  let actual = [| 0.9; -0.9; 0.9 |] in
  check (float_t 1e-9) "20 dB" 20.0 (Sqnr.of_arrays ~reference ~actual)

let test_sqnr_theoretical_quantization () =
  (* measured SQNR of quantizing uniform noise matches theory within
     ~0.5 dB *)
  let open Fixrefine in
  let dt = Fixpt.Dtype.make "t" ~n:10 ~f:8 () in
  let r = Rng.create ~seed:123 in
  let t = Sqnr.create () in
  for _ = 1 to 50_000 do
    let v = Rng.uniform r ~lo:(-1.9) ~hi:1.9 in
    Sqnr.add t ~reference:v ~actual:(Fixpt.Quantize.cast dt v)
  done;
  let theory =
    Sqnr.theoretical_uniform_db ~amplitude:1.9 ~step:(Fixpt.Dtype.step dt)
  in
  check (float_t 0.5) "matches theory" theory (Sqnr.db t)

(* The structure-of-arrays accumulators against the one-summary fold:
   B lanes fed random rows (NaN and ±∞ mixed in, rows at random offsets
   of a wider array) must read back, lane by lane, the exact raw fields
   of a [Running.add] fold for the values and of [Err_stats.record] for
   the consumed/produced pair fl − fx(pre), fl − fx(post). *)
let prop_lanes_match_running =
  let sample =
    QCheck2.Gen.(
      frequency
        [
          (6, float_range (-10.0) 10.0);
          (2, float);
          ( 2,
            oneofl
              [ Float.nan; Float.infinity; Float.neg_infinity; 0.0; -0.0 ] );
        ])
  in
  QCheck2.Test.make ~name:"lane accumulators = per-lane Running folds"
    ~count:200
    QCheck2.Gen.(
      int_range 1 9 >>= fun b ->
      pair (int_range 0 3)
        (list_size (int_range 0 30) (array_size (return (3 * b)) sample))
      >|= fun (off, rows) -> (b, off, rows))
    (fun (b, off, rows) ->
      let vals = Running.Lanes.create b and errs = Err_stats.Lanes.create b in
      let ref_vals = Array.init b (fun _ -> Running.create ())
      and ref_errs = Array.init b (fun _ -> Err_stats.create ()) in
      let width = off + (3 * b) + 2 in
      List.iter
        (fun row ->
          (* fx(pre), fl(pre), fx(post) rows, each at its own offset *)
          let a = Array.make width Float.nan in
          Array.blit row 0 a off (3 * b);
          let pre = off and fl = off + b and post = off + (2 * b) in
          Running.Lanes.add_row vals a pre;
          Running.Lanes.add_diff (Err_stats.Lanes.consumed errs) a fl a pre;
          Running.Lanes.add_diff (Err_stats.Lanes.produced errs) a fl a post;
          for l = 0 to b - 1 do
            Running.add ref_vals.(l) a.(pre + l);
            Err_stats.record ref_errs.(l)
              ~consumed:(a.(fl + l) -. a.(pre + l))
              ~produced:(a.(fl + l) -. a.(post + l))
          done)
        rows;
      let same x y =
        Array.for_all2
          (fun p q -> Int64.bits_of_float p = Int64.bits_of_float q)
          x y
      in
      List.for_all
        (fun l ->
          same (Running.raw (Running.Lanes.get vals l)) (Running.raw ref_vals.(l))
          && same
               (Err_stats.raw (Err_stats.Lanes.get errs l))
               (Err_stats.raw ref_errs.(l)))
        (List.init b Fun.id))

let suite =
  ( "stats",
    [
      Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
      Alcotest.test_case "rng seeds differ" `Quick test_rng_seeds_differ;
      Alcotest.test_case "rng float range" `Quick test_rng_float_range;
      Alcotest.test_case "rng uniform_sym moments" `Quick
        test_rng_uniform_sym;
      Alcotest.test_case "rng gauss moments" `Quick test_rng_gauss_moments;
      Alcotest.test_case "rng split" `Quick test_rng_split_independent;
      Alcotest.test_case "rng pam2" `Quick test_rng_pam2;
      Alcotest.test_case "rng pam4" `Quick test_rng_pam4;
      Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
      Alcotest.test_case "running basic" `Quick test_running_basic;
      Alcotest.test_case "running empty" `Quick test_running_empty;
      Alcotest.test_case "running nan" `Quick test_running_nan_ignored;
      Alcotest.test_case "running reset" `Quick test_running_reset;
      Test_support.Qseed.to_alcotest prop_running_matches_direct;
      Test_support.Qseed.to_alcotest prop_merge_equals_concat;
      Test_support.Qseed.to_alcotest prop_lanes_match_running;
      Alcotest.test_case "err record" `Quick test_err_stats_record;
      Alcotest.test_case "err loss verdicts" `Quick test_err_loss_verdicts;
      Alcotest.test_case "err precision_of" `Quick test_err_precision_of;
      Alcotest.test_case "err precision bad k" `Quick test_err_precision_bad_k;
      Alcotest.test_case "err precision constant error" `Quick
        test_err_precision_constant_error;
      Test_support.Qseed.to_alcotest prop_precision_sigma_rule;
      Alcotest.test_case "histogram chi-square" `Quick
        test_histogram_chi_square;
      Alcotest.test_case "sqnr known ratio" `Quick test_sqnr_known_ratio;
      Alcotest.test_case "sqnr no noise" `Quick test_sqnr_no_noise;
      Alcotest.test_case "sqnr of arrays" `Quick test_sqnr_of_arrays;
      Alcotest.test_case "sqnr vs theory" `Quick
        test_sqnr_theoretical_quantization;
    ] )
