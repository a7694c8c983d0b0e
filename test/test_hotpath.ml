(* Regression + property tests for the simulation-engine hot path:
   int64-boundary quantization (n = 62/63), wrap_code at full width,
   duplicate-name registration, and the RNG-reseeding reset semantics. *)

open Fixrefine
open Fixrefine.Fixpt

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let float_t = Alcotest.float 1e-12
let int64_t = Alcotest.int64

let dt ?(n = 8) ?(f = 6) ?(sign = Sign_mode.Tc)
    ?(overflow = Overflow_mode.Wrap) ?(round = Round_mode.Round) () =
  Dtype.make "t" ~n ~f ~sign ~overflow ~round ()

(* --- int64 boundary: n = 62 stays on the exact integer path --------- *)

let test_n62_boundary_codes () =
  (* <62,0>: step 1, codes [-2^61, 2^61-1].  Exercise float-exact codes
     near the bounds through the public quantize API. *)
  let sat = dt ~n:62 ~f:0 ~overflow:Overflow_mode.Saturate () in
  let hi = Int64.to_float (Int64.sub (Int64.shift_left 1L 61) 1L) in
  (* 2^61 - 1024 = 1024 * (2^51 - 1): float-exact, in range *)
  let exact_in = Float.ldexp 1.0 61 -. 1024.0 in
  check float_t "in-range code passes" exact_in (Quantize.cast sat exact_in);
  (* 2^61 (= hi + 1 in code space): float-exact, saturates to hi *)
  let above = Float.ldexp 1.0 61 in
  check float_t "hi+1 saturates to hi" hi (Quantize.cast sat above);
  let lo = -.Float.ldexp 1.0 61 in
  check float_t "lo passes" lo (Quantize.cast sat lo);
  check float_t "lo-1024 saturates to lo" lo
    (Quantize.cast sat (lo -. 1024.0));
  (* wrap at the same magnitude: 2^61 wraps to -2^61 *)
  let wr = dt ~n:62 ~f:0 ~overflow:Overflow_mode.Wrap () in
  check float_t "hi+1 wraps to lo" lo (Quantize.cast wr above)

let test_n62_int64_path_selected () =
  let c = Quantize.of_dtype (dt ~n:62 ~f:0 ()) in
  check bool_t "n=62 on int64 path" true c.Quantize.int64_path;
  let c63 = Quantize.of_dtype (dt ~n:63 ~f:0 ()) in
  check bool_t "n=63 on float fallback" false c63.Quantize.int64_path

(* --- wrap_code at full width (n = 63/64) ---------------------------- *)

let test_wrap_code_n63 () =
  let fmt = Qformat.make ~n:63 ~f:0 Sign_mode.Tc in
  let lo, hi = Quantize.code_bounds fmt in
  check int64_t "lo = -2^62" (Int64.neg (Int64.shift_left 1L 62)) lo;
  check int64_t "hi = 2^62-1" (Int64.sub (Int64.shift_left 1L 62) 1L) hi;
  (* in-range codes are unchanged *)
  check int64_t "lo fixed" lo (Quantize.wrap_code fmt lo);
  check int64_t "hi fixed" hi (Quantize.wrap_code fmt hi);
  check int64_t "0 fixed" 0L (Quantize.wrap_code fmt 0L);
  (* one past each bound wraps to the opposite bound *)
  check int64_t "hi+1 wraps to lo" lo
    (Quantize.wrap_code fmt (Int64.add hi 1L));
  check int64_t "lo-1 wraps to hi" hi
    (Quantize.wrap_code fmt (Int64.sub lo 1L))

let test_wrap_code_n64_tc () =
  (* n = 64 tc: every int64 is its own code — identity *)
  let fmt = Qformat.make ~n:64 ~f:0 Sign_mode.Tc in
  check int64_t "max_int fixed" Int64.max_int
    (Quantize.wrap_code fmt Int64.max_int);
  check int64_t "min_int fixed" Int64.min_int
    (Quantize.wrap_code fmt Int64.min_int)

let test_wrap_code_n63_unsigned () =
  let fmt = Qformat.make ~n:63 ~f:0 Sign_mode.Us in
  let _, hi = Quantize.code_bounds fmt in
  check int64_t "hi fixed" hi (Quantize.wrap_code fmt hi);
  check int64_t "hi+1 wraps to 0" 0L
    (Quantize.wrap_code fmt (Int64.add hi 1L));
  check int64_t "-1 wraps to hi" hi (Quantize.wrap_code fmt (-1L))

let prop_wrap_code_small_n_matches_modular =
  (* the sign-extension/masking implementation must agree with the
     naive lo + ((code - lo) mod span) formula wherever the span fits *)
  QCheck2.Test.make ~name:"wrap_code = modular reduction (n <= 62)"
    ~count:1000
    QCheck2.Gen.(
      triple (int_range 2 62) bool
        (map Int64.of_int (int_range (-4611686018427387904) 4611686018427387903)))
    (fun (n, signed, code) ->
      let sign = if signed then Sign_mode.Tc else Sign_mode.Us in
      let fmt = Qformat.make ~n ~f:0 sign in
      let lo, hi = Quantize.code_bounds fmt in
      let span = Int64.add (Int64.sub hi lo) 1L in
      let m = Int64.rem (Int64.sub code lo) span in
      let m = if Int64.compare m 0L < 0 then Int64.add m span else m in
      let expected = Int64.add lo m in
      Int64.equal expected (Quantize.wrap_code fmt code))

let prop_exec_into_matches_exec =
  (* the allocation-free hot path and the boxed API are the same cast *)
  QCheck2.Test.make ~name:"exec_into = exec" ~count:1000
    QCheck2.Gen.(
      triple
        (float_range (-1.0e6) 1.0e6)
        (int_range 2 30)
        (pair bool bool))
    (fun (v, n, (saturate, nearest)) ->
      let d =
        dt ~n ~f:(n / 2)
          ~overflow:
            (if saturate then Overflow_mode.Saturate else Overflow_mode.Wrap)
          ~round:(if nearest then Round_mode.Round else Round_mode.Floor)
          ()
      in
      let c = Quantize.of_dtype d in
      let s = Quantize.create_scratch () in
      let value = Quantize.exec_into c v s in
      let out = Quantize.exec c v in
      value = out.Quantize.value
      && s.Quantize.rerr = out.Quantize.rounding_error
      && (s.Quantize.flag <> 0.0) = (out.Quantize.overflow <> None))

(* --- duplicate registration ----------------------------------------- *)

let test_duplicate_name_raises () =
  let env = Sim.Env.create () in
  let _a = Sim.Signal.create env "x" in
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Env.register: duplicate signal name \"x\"") (fun () ->
      ignore (Sim.Signal.create env "x"));
  (* a registered signal cannot shadow a combinational one either *)
  Alcotest.check_raises "duplicate reg rejected"
    (Invalid_argument "Env.register: duplicate signal name \"x\"") (fun () ->
      ignore (Sim.Signal.create_reg env "x"))

let test_find_after_many () =
  let env = Sim.Env.create () in
  for i = 0 to 99 do
    ignore (Sim.Signal.create env (Printf.sprintf "s%d" i))
  done;
  check bool_t "find hits" true (Sim.Env.find env "s57" <> None);
  check bool_t "find misses" true (Sim.Env.find env "nope" = None);
  check int_t "declaration order kept" 100
    (List.length (Sim.Env.signals env));
  check bool_t "order is registration order" true
    (List.mapi (fun i e -> e.Sim.Env.name = Printf.sprintf "s%d" i)
       (Sim.Env.signals env)
    |> List.for_all Fun.id)

(* --- reset reseeds the environment RNG ------------------------------ *)

(* A little design with an [error()] injection, so simulation consumes
   the environment RNG: two reset+run cycles must produce identical
   statistics now that [reset] rewinds the noise stream. *)
let noisy_run env s =
  Sim.Env.reset env;
  let open Sim.Ops in
  for i = 1 to 200 do
    s <-- (cst (Float.of_int (i mod 17)) *: cst 0.125);
    Sim.Env.tick env
  done;
  match Sim.Signal.stat_range (Sim.Env.find_exn env "n") with
  | Some (lo, hi) -> (lo, hi)
  | None -> Alcotest.fail "no samples recorded"

let test_reset_replays_noise () =
  let env = Sim.Env.create ~seed:77 () in
  let s = Sim.Signal.create_reg env "n" ~dtype:(dt ()) in
  Sim.Signal.error s 0.25;
  let lo1, hi1 = noisy_run env s in
  let lo2, hi2 = noisy_run env s in
  check float_t "identical min across reset+rerun" lo1 lo2;
  check float_t "identical max across reset+rerun" hi1 hi2;
  (* the produced-error population must replay exactly too *)
  let stats_of () =
    let e = Sim.Signal.err_stats s in
    Stats.Running.mean (Stats.Err_stats.produced e)
  in
  let m1 = stats_of () in
  let _ = noisy_run env s in
  check float_t "identical produced-error mean" m1 (stats_of ())

let test_reset_opt_out_keeps_stream () =
  (* with ~reseed:false the noise stream continues instead of rewinding *)
  let env = Sim.Env.create ~seed:3 () in
  let r1 = Stats.Rng.float (Sim.Env.rng env) in
  Sim.Env.reset env ~reseed:false;
  let r2 = Stats.Rng.float (Sim.Env.rng env) in
  check bool_t "stream continued" true (r1 <> r2);
  Sim.Env.reset env;
  let r3 = Stats.Rng.float (Sim.Env.rng env) in
  check float_t "default reset rewinds" r1 r3

let test_rng_reseed_rewinds () =
  let rng = Stats.Rng.create ~seed:12345 in
  let a = Array.init 8 (fun _ -> Stats.Rng.float rng) in
  Stats.Rng.reseed rng ~seed:12345;
  let b = Array.init 8 (fun _ -> Stats.Rng.float rng) in
  check bool_t "identical stream after reseed" true (a = b)

(* --- dirty-list tick semantics -------------------------------------- *)

let test_tick_commits_only_staged () =
  let env = Sim.Env.create () in
  let a = Sim.Signal.create_reg env "a" in
  let b = Sim.Signal.create_reg env "b" in
  let open Sim.Ops in
  a <-- cst 1.0;
  b <-- cst 2.0;
  Sim.Env.tick env;
  (* second cycle writes only [a]; [b] must hold *)
  a <-- cst 3.0;
  Sim.Env.tick env;
  check float_t "written reg committed" 3.0 (Sim.Signal.peek_fx a);
  check float_t "unwritten reg held" 2.0 (Sim.Signal.peek_fx b);
  (* double write in one cycle: last one wins, single dirty entry *)
  a <-- cst 4.0;
  a <-- cst 5.0;
  Sim.Env.tick env;
  check float_t "last write wins" 5.0 (Sim.Signal.peek_fx a)

let suite =
  ( "hot-path",
    [
      Alcotest.test_case "n=62 boundary codes" `Quick test_n62_boundary_codes;
      Alcotest.test_case "n=62/63 path selection" `Quick
        test_n62_int64_path_selected;
      Alcotest.test_case "wrap_code n=63" `Quick test_wrap_code_n63;
      Alcotest.test_case "wrap_code n=64 tc" `Quick test_wrap_code_n64_tc;
      Alcotest.test_case "wrap_code n=63 unsigned" `Quick
        test_wrap_code_n63_unsigned;
      Alcotest.test_case "duplicate name raises" `Quick
        test_duplicate_name_raises;
      Alcotest.test_case "find after many" `Quick test_find_after_many;
      Alcotest.test_case "reset replays noise" `Quick test_reset_replays_noise;
      Alcotest.test_case "reset opt-out keeps stream" `Quick
        test_reset_opt_out_keeps_stream;
      Alcotest.test_case "rng reseed rewinds" `Quick test_rng_reseed_rewinds;
      Alcotest.test_case "tick commits only staged" `Quick
        test_tick_commits_only_staged;
      Test_support.Qseed.to_alcotest prop_wrap_code_small_n_matches_modular;
      Test_support.Qseed.to_alcotest prop_exec_into_matches_exec;
    ] )
