(* Unit + conformance tests: the flat-schedule compiled executor.

   The contract under test is byte-equality: every node's value, at
   every step and lane, must be bit-identical between
   [Compile.run]/[Compile.traces] and the reference interpreter
   [Sfg.Graph.simulate] — across batch sizes and overflow/round modes.
   Plus [Engine.run_until] exit semantics, the [Wordlength.assign] LSB
   clamp, and [Extract.graph]'s missing-output error. *)

open Fixrefine

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let bits = Int64.bits_of_float

(* Pure, NaN-free stimulus: a hash of (name, lane, step) scaled into
   (-2, 2) — lanes get genuinely different streams. *)
let stim name lane step =
  let h = Hashtbl.hash (name, lane, step * 7919) in
  Float.of_int ((h land 0xFFFF) - 0x8000) /. 16384.0

(* [Compile.feed] of a per-lane stimulus [f name lane step], for a
   [batch]-lane program. *)
let rows ~batch f name step dst off =
  for lane = 0 to batch - 1 do
    dst.(off + lane) <- f name lane step
  done

(* Compiled-vs-interpreted byte equality over every node, step, lane. *)
let assert_traces_equal ~what ~batch ~steps ?(stim = stim) g =
  let prog = Compile.compile ~batch g in
  let ct = Compile.traces prog ~steps ~inputs:(rows ~batch stim) in
  for lane = 0 to batch - 1 do
    let it =
      Sfg.Graph.simulate g ~steps ~inputs:(fun name step -> stim name lane step)
    in
    List.iter2
      (fun (cn, per_lane) (iname, itr) ->
        check Alcotest.string (what ^ ": node order") iname cn;
        let carr = per_lane.(lane) in
        Array.iteri
          (fun s iv ->
            if bits carr.(s) <> bits iv then
              Alcotest.failf
                "%s: node %s lane %d step %d: compiled %h <> interpreted %h"
                what cn lane s carr.(s) iv)
          itr)
      ct it
  done

(* A graph exercising every operator: arithmetic, shift, min/max,
   select, saturate, two quantization points, a feedback delay and a
   feed-forward delay line. *)
let rec zoo ~overflow ~round () =
  zoo_typed
    (Fixpt.Dtype.make "T1" ~n:8 ~f:5 ~overflow ~round ())
    (Fixpt.Dtype.make "T2" ~n:10 ~f:6 ~overflow ~round ())

(* The same graph with its two quantizers ([q1], [q2]) typed [dt1],
   [dt2]. *)
and zoo_typed dt1 dt2 =
  let g = Sfg.Graph.create () in
  let a = Sfg.Graph.input g "a" ~lo:(-2.0) ~hi:2.0 in
  let b = Sfg.Graph.input g "b" ~lo:(-2.0) ~hi:2.0 in
  let k = Sfg.Graph.const g ~name:"k" 0.8125 in
  let s = Sfg.Graph.add g a b in
  let d = Sfg.Graph.sub g s k in
  let m = Sfg.Graph.mul g d a in
  let den =
    Sfg.Graph.add g ~name:"den" (Sfg.Graph.abs g b)
      (Sfg.Graph.const g ~name:"c15" 1.5)
  in
  let q1 = Sfg.Graph.quantize g ~name:"q1" dt1 (Sfg.Graph.div g m den) in
  let mn = Sfg.Graph.min_ g q1 a in
  let mx = Sfg.Graph.max_ g mn (Sfg.Graph.neg g a) in
  let sh = Sfg.Graph.shift g mx (-2) in
  let sat = Sfg.Graph.saturate g ~name:"sat" sh ~lo:(-0.75) ~hi:0.75 in
  let acc = Sfg.Graph.delay g ~init:0.25 "acc" in
  let fb =
    Sfg.Graph.add g ~name:"fb" sat (Sfg.Graph.shift g ~name:"half" acc (-1))
  in
  let q2 = Sfg.Graph.quantize g ~name:"q2" dt2 fb in
  Sfg.Graph.connect_delay g acc q2;
  let sel = Sfg.Graph.select g a q2 sat in
  let y = Sfg.Graph.alias g ~name:"y" sel in
  ignore (Sfg.Graph.delay_of g "dline" y);
  Sfg.Graph.mark_output g "y" y;
  g

let mode_name ov rd =
  Printf.sprintf "%s/%s"
    (Fixpt.Overflow_mode.to_string ov)
    (Fixpt.Round_mode.to_string rd)

(* --- byte equality: modes × batch sizes -------------------------------- *)

(* Lane-block widths on both sides of the executor's narrow-row limit
   (rows of at most 8 lanes are copied by a loop, wider ones by
   [Array.blit]) and around a 64-lane block. *)
let widths = List.init 9 (fun i -> i + 1) @ [ 63; 64; 65 ]

let test_equality_modes_batches () =
  List.iter
    (fun overflow ->
      List.iter
        (fun round ->
          List.iter
            (fun batch ->
              assert_traces_equal
                ~what:
                  (Printf.sprintf "zoo %s B=%d" (mode_name overflow round)
                     batch)
                ~batch ~steps:48
                (zoo ~overflow ~round ()))
            widths)
        [ Fixpt.Round_mode.Round; Fixpt.Round_mode.Floor ])
    [ Fixpt.Overflow_mode.Wrap; Fixpt.Overflow_mode.Saturate ]

(* --- qcheck: batching never reorders per-vector outputs ---------------- *)

(* Every step's fixed and float-reference lattices of a run, and each
   lane's overflow count after it. *)
let run_lattices prog ~batch ~steps ~inputs =
  let fx = Array.make steps [||] and fl = Array.make steps [||] in
  Compile.run prog ~steps ~inputs ~on_step:(fun s ->
      fx.(s) <- Array.copy (Compile.lattice prog);
      fl.(s) <- Array.copy (Compile.ref_lattice prog));
  (fx, fl, Array.init batch (fun lane -> Compile.lane_overflow_count prog ~lane))

let qcheck_batch_no_reorder =
  QCheck_alcotest.to_alcotest
  @@ QCheck2.Test.make ~name:"batched lane = its own single-lane run"
       ~count:60
       QCheck2.Gen.(
         quad (oneofl widths) (int_range 1 40) (int_range 0 999) bool)
       (fun (batch, steps, salt, wrap) ->
         let g =
           zoo
             ~overflow:
               (if wrap then Fixpt.Overflow_mode.Wrap
                else Fixpt.Overflow_mode.Saturate)
             ~round:Fixpt.Round_mode.Floor ()
         in
         let stim name lane step = stim name (lane + salt) step in
         let prog = Compile.compile ~batch ~dual:true g in
         let n = Compile.node_count prog in
         let bfx, bfl, bovf =
           run_lattices prog ~batch ~steps ~inputs:(rows ~batch stim)
         in
         let ok = ref true in
         for lane = 0 to batch - 1 do
           (* one lane alone, through a batch-1 program fed that lane's
              stimulus: must reproduce the batched lane bit-for-bit, in
              both lattices, and its overflow count *)
           let sfx, sfl, sovf =
             run_lattices
               (Compile.compile ~batch:1 ~dual:true g)
               ~batch:1 ~steps
               ~inputs:(rows ~batch:1 (fun name _ step -> stim name lane step))
           in
           if sovf.(0) <> bovf.(lane) then ok := false;
           for s = 0 to steps - 1 do
             for i = 0 to n - 1 do
               let j = (i * batch) + lane in
               if
                 bits bfx.(s).(j) <> bits sfx.(s).(i)
                 || bits bfl.(s).(j) <> bits sfl.(s).(i)
               then ok := false
             done
           done
         done;
         !ok)

(* --- per-lane quantizers ------------------------------------------------ *)

(* Each lane retypes [q1]/[q2]; lane [l] must equal a batch-1 run of
   [zoo_typed] with lane [l]'s types, values and overflow count alike. *)
let test_lane_dtypes () =
  let lanes =
    [|
      (8, 5, 10, 6, Fixpt.Overflow_mode.Wrap, Fixpt.Round_mode.Floor);
      (4, 3, 5, 3, Fixpt.Overflow_mode.Saturate, Fixpt.Round_mode.Round);
      (4, 2, 6, 4, Fixpt.Overflow_mode.Wrap, Fixpt.Round_mode.Round);
      (12, 9, 4, 3, Fixpt.Overflow_mode.Saturate, Fixpt.Round_mode.Floor);
      (3, 2, 3, 2, Fixpt.Overflow_mode.Wrap, Fixpt.Round_mode.Floor);
    |]
  in
  let dtypes (n1, f1, n2, f2, overflow, round) =
    ( Fixpt.Dtype.make "T1" ~n:n1 ~f:f1 ~overflow ~round (),
      Fixpt.Dtype.make "T2" ~n:n2 ~f:f2 ~overflow ~round () )
  in
  let batch = Array.length lanes and steps = 64 in
  let g =
    zoo ~overflow:Fixpt.Overflow_mode.Wrap ~round:Fixpt.Round_mode.Floor ()
  in
  let prog =
    Compile.compile ~batch
      ~lane_dtype:(fun ~lane ->
        let dt1, dt2 = dtypes lanes.(lane) in
        fun nd -> if nd.Sfg.Node.name = "q1" then dt1 else dt2)
      g
  in
  let batched =
    Compile.traces prog ~steps ~inputs:(rows ~batch stim)
  in
  let total = ref 0 in
  Array.iteri
    (fun lane spec ->
      let dt1, dt2 = dtypes spec in
      let single = Compile.compile (zoo_typed dt1 dt2) in
      let st =
        Compile.traces single ~steps
          ~inputs:(rows ~batch:1 (fun name _ step -> stim name lane step))
      in
      List.iter2
        (fun (name, bl) (_, sl) ->
          Array.iteri
            (fun s v ->
              if bits bl.(lane).(s) <> bits v then
                Alcotest.failf "lane %d node %s step %d: %h <> %h" lane name s
                  bl.(lane).(s) v)
            sl.(0))
        batched st;
      check int_t
        (Printf.sprintf "lane %d overflow count" lane)
        (Compile.overflow_count single)
        (Compile.lane_overflow_count prog ~lane);
      total := !total + Compile.overflow_count single)
    lanes;
  check bool_t "some lane overflows" true (!total > 0);
  check int_t "overflow_count sums the lanes" !total
    (Compile.overflow_count prog);
  check int_t "overflows sum the lanes" !total
    (List.fold_left (fun acc (_, k) -> acc + k) 0 (Compile.overflows prog))

(* --- compiled candidate evaluation: metric parity with the env --------- *)

let fir_assigns =
  let dt name ~int_bits ~f =
    Fixpt.Dtype.make name
      ~n:(int_bits + f)
      ~f ~overflow:Fixpt.Overflow_mode.Saturate ~round:Fixpt.Round_mode.Round
      ()
  in
  [ ("x", dt "Tx" ~int_bits:2 ~f:7) ]
  @ List.init 5 (fun i ->
        (Printf.sprintf "d[%d]" i, dt "Td" ~int_bits:2 ~f:7))
  @ List.init 5 (fun i ->
        (Printf.sprintf "v[%d]" (i + 1), dt "Tv" ~int_bits:3 ~f:9))
  @ [ ("out", dt "To" ~int_bits:3 ~f:8) ]

let stats_equal what (a : Stats.Running.t) (b : Stats.Running.t) =
  check int_t (what ^ " count") (Stats.Running.count a)
    (Stats.Running.count b);
  List.iter
    (fun (field, fa, fb) ->
      if bits fa <> bits fb then
        Alcotest.failf "%s %s: %h <> %h" what field fa fb)
    [
      ("mean", Stats.Running.mean a, Stats.Running.mean b);
      ("variance", Stats.Running.variance a, Stats.Running.variance b);
      ("min", Stats.Running.min_value a, Stats.Running.min_value b);
      ("max", Stats.Running.max_value a, Stats.Running.max_value b);
    ]

let test_fir_compiled_metric_parity () =
  let w = Option.get (Sweep.Workload.find "fir") in
  let inst = w.Sweep.Workload.make_instance () in
  let ce = Option.get inst.Sweep.Workload.compiled in
  let probe = w.Sweep.Workload.probe in
  let eval_interp seed =
    Sim.Env.restore_into inst.Sweep.Workload.baseline inst.Sweep.Workload.env;
    inst.Sweep.Workload.set_seed seed;
    Refine.Eval.evaluate ~assigns:fir_assigns ~probe
      inst.Sweep.Workload.design
  in
  let eval_comp seed =
    Sim.Env.restore_into inst.Sweep.Workload.baseline inst.Sweep.Workload.env;
    inst.Sweep.Workload.set_seed seed;
    Refine.Eval.evaluate_compiled ~assigns:fir_assigns ~probe ~seed ce
      inst.Sweep.Workload.design
  in
  (* prove the compiled path actually compiles (no silent fallback):
     extraction closes, the program builds, the probe resolves *)
  Sim.Env.restore_into inst.Sweep.Workload.baseline inst.Sweep.Workload.env;
  Refine.Eval.apply_assigns inst.Sweep.Workload.env fir_assigns;
  inst.Sweep.Workload.design.Refine.Flow.reset ();
  let g = ce.Refine.Eval.extract () in
  let prog = Compile.compile ~dual:true g in
  check bool_t "probe node present" true (Compile.find prog probe <> None);
  List.iter
    (fun seed ->
      let mi = eval_interp seed in
      let mc = eval_comp seed in
      check int_t "total_bits" mi.Refine.Eval.total_bits
        mc.Refine.Eval.total_bits;
      check int_t "overflow_count" mi.Refine.Eval.overflow_count
        mc.Refine.Eval.overflow_count;
      (match (mi.Refine.Eval.sqnr_db, mc.Refine.Eval.sqnr_db) with
      | Some a, Some b when bits a = bits b -> ()
      | None, None -> ()
      | a, b ->
          Alcotest.failf "sqnr mismatch (seed %d): %s <> %s" seed
            (match a with Some v -> Printf.sprintf "%h" v | None -> "None")
            (match b with Some v -> Printf.sprintf "%h" v | None -> "None"));
      if bits mi.Refine.Eval.probe_err_max <> bits mc.Refine.Eval.probe_err_max
      then
        Alcotest.failf "probe_err_max (seed %d): %h <> %h" seed
          mi.Refine.Eval.probe_err_max mc.Refine.Eval.probe_err_max;
      stats_equal "probe values"
        (Option.get mi.Refine.Eval.probe_values)
        (Option.get mc.Refine.Eval.probe_values);
      stats_equal "produced err"
        (Stats.Err_stats.produced (Option.get mi.Refine.Eval.probe_err))
        (Stats.Err_stats.produced (Option.get mc.Refine.Eval.probe_err));
      stats_equal "consumed err"
        (Stats.Err_stats.consumed (Option.get mi.Refine.Eval.probe_err))
        (Stats.Err_stats.consumed (Option.get mc.Refine.Eval.probe_err)))
    [ 0; 1; 7 ]

(* --- saturate and min/max at signed zeros -------------------------------- *)

(* [Isat]/[Imin]/[Imax] compare lane values without the stdlib calls;
   their results must stay [Float.max lo (Float.min hi v)] /
   [Float.min] / [Float.max] bit for bit, NaN and the order -0 < +0
   included — on bounds that are themselves signed zeros. *)
let test_saturate_signed_zeros () =
  let specials =
    [|
      0.0; -0.0; 1.0; -1.0; 0.25; -0.25; 1e-310; -1e-310; Float.nan;
      Float.infinity; Float.neg_infinity; 3.0; -3.0;
    |]
  in
  let ns = Array.length specials in
  let stim name lane step =
    specials.((step + (lane * 5) + if name = "y" then 7 else 0) mod ns)
  in
  let g = Sfg.Graph.create () in
  let x = Sfg.Graph.input g "x" ~lo:(-2.0) ~hi:2.0 in
  let y = Sfg.Graph.input g "y" ~lo:(-2.0) ~hi:2.0 in
  List.iteri
    (fun i (lo, hi) ->
      ignore (Sfg.Graph.saturate g ~name:(Printf.sprintf "sat%d" i) x ~lo ~hi))
    [
      (0.0, 0.0); (-0.0, -0.0); (-0.0, 0.0); (0.0, -0.0); (-1.0, -0.0);
      (-1.0, 0.0); (-0.0, 1.0); (0.0, 1.0); (-0.5, 0.5);
      (Float.neg_infinity, -0.0); (0.0, Float.infinity);
    ];
  List.iter
    (fun c ->
      let k = Sfg.Graph.const g c in
      ignore (Sfg.Graph.min_ g x k);
      ignore (Sfg.Graph.max_ g x k);
      ignore (Sfg.Graph.min_ g k x);
      ignore (Sfg.Graph.max_ g k x))
    [ 0.0; -0.0; Float.nan ];
  ignore (Sfg.Graph.min_ g x y);
  ignore (Sfg.Graph.max_ g x y);
  List.iter
    (fun batch ->
      assert_traces_equal
        ~what:(Printf.sprintf "signed zeros B=%d" batch)
        ~batch ~steps:(2 * ns) ~stim g)
    [ 1; 3 ]

(* --- single-step drive ---------------------------------------------------- *)

(* From a fresh reset, one [step_once] fed the same row fillers as
   [run ~steps:1] leaves the same store: every node's row in both
   lattices, every lane's registers and the overflow tallies, bit for
   bit. *)
let test_step_once_is_run_step () =
  List.iter
    (fun (batch, dual) ->
      let what = Printf.sprintf "B=%d dual=%b" batch dual in
      let g =
        zoo ~overflow:Fixpt.Overflow_mode.Wrap ~round:Fixpt.Round_mode.Round ()
      in
      let stepped = Compile.compile ~batch ~dual g in
      let ran = Compile.compile ~batch ~dual g in
      Compile.reset stepped;
      Compile.step_once stepped ~step:0 ~inputs:(rows ~batch stim);
      Compile.run ran ~steps:1 ~inputs:(rows ~batch stim);
      let same_rows name a b =
        Array.iteri
          (fun i v ->
            if bits v <> bits b.(i) then
              Alcotest.failf "%s: %s slot %d: step_once %h <> run %h" what name
                i v b.(i))
          a
      in
      same_rows "lattice" (Compile.lattice stepped) (Compile.lattice ran);
      if dual then
        same_rows "float lattice" (Compile.ref_lattice stepped)
          (Compile.ref_lattice ran);
      let nr = Compile.register_count ran in
      let a = Array.make nr 0.0 and b = Array.make nr 0.0 in
      for lane = 0 to batch - 1 do
        Compile.read_state stepped ~lane a;
        Compile.read_state ran ~lane b;
        same_rows (Printf.sprintf "registers of lane %d" lane) a b
      done;
      check
        (Alcotest.list (Alcotest.pair Alcotest.string int_t))
        (what ^ ": overflows") (Compile.overflows ran)
        (Compile.overflows stepped))
    [ (1, false); (5, false); (5, true) ]

(* [write_state] then [read_state] returns the planted vector at the
   first and last lane and leaves the lanes between at the reset state;
   a lane outside [0, batch) raises [Invalid_argument]. *)
let test_state_round_trip () =
  let batch = 5 in
  let prog =
    Compile.compile ~batch
      (zoo ~overflow:Fixpt.Overflow_mode.Wrap ~round:Fixpt.Round_mode.Round ())
  in
  Compile.reset prog;
  let nr = Compile.register_count prog in
  check bool_t "registers" true (nr > 0);
  let planted lane =
    Array.init nr (fun r -> Float.of_int ((lane * 7) + r) -. 0.5)
  in
  let got = Array.make nr 0.0 in
  let same what want =
    Array.iteri
      (fun r v ->
        if bits v <> bits got.(r) then
          Alcotest.failf "%s register %d: %h <> %h" what r got.(r) v)
      want
  in
  List.iter
    (fun lane -> Compile.write_state prog ~lane (planted lane))
    [ 0; batch - 1 ];
  List.iter
    (fun lane ->
      Compile.read_state prog ~lane got;
      same (Printf.sprintf "lane %d" lane) (planted lane))
    [ 0; batch - 1 ];
  Compile.read_state prog ~lane:2 got;
  same "untouched lane 2" (Compile.initial_state prog);
  List.iter
    (fun lane ->
      let raises what f =
        check bool_t
          (Printf.sprintf "%s lane %d raises" what lane)
          true
          (match f () with
          | () -> false
          | exception Invalid_argument _ -> true)
      in
      raises "read_state" (fun () -> Compile.read_state prog ~lane got);
      raises "write_state" (fun () -> Compile.write_state prog ~lane got))
    [ -1; batch ]

(* NaN reaching a [Quantize] raises [Invalid_argument] from [step_once]
   as it does from [run]: input [a] = NaN makes [q1]'s argument NaN. *)
let test_step_once_nan_raises () =
  let batch = 3 in
  let g =
    zoo ~overflow:Fixpt.Overflow_mode.Wrap ~round:Fixpt.Round_mode.Round ()
  in
  let nan_a name lane step =
    if name = "a" && lane = 1 then Float.nan else stim name lane step
  in
  let raises what f =
    check bool_t (what ^ " raises") true
      (match f () with () -> false | exception Invalid_argument _ -> true)
  in
  let prog = Compile.compile ~batch g in
  raises "run" (fun () ->
      Compile.run prog ~steps:1 ~inputs:(rows ~batch nan_a));
  Compile.reset prog;
  raises "step_once" (fun () ->
      Compile.step_once prog ~step:0 ~inputs:(rows ~batch nan_a))

(* --- conformance workloads: the full oracle gate ----------------------- *)

let test_conformance_gate () =
  let r = Oracle.Compile_check.run () in
  List.iter
    (fun (x : Oracle.Compile_check.result) ->
      if not x.Oracle.Compile_check.ok then
        Alcotest.failf "%s: %s" x.Oracle.Compile_check.name
          x.Oracle.Compile_check.detail)
    r.Oracle.Compile_check.results;
  check int_t "gate covers every workload and the sweep"
    (List.length Oracle.Workloads.all + 1)
    (List.length r.Oracle.Compile_check.results)

(* --- satellite: run_until exit semantics ------------------------------- *)

let test_run_until_exits () =
  (* bound exit: exactly [max] step+tick pairs, result = ticks *)
  let env = Sim.Env.create ~seed:1 () in
  let steps = ref 0 in
  let n =
    Sim.Engine.run_until ~max:10 env (fun _ ->
        incr steps;
        true)
  in
  check int_t "bound exit: cycles" 10 n;
  check int_t "bound exit: step calls" 10 !steps;
  check int_t "bound exit: committed ticks" 10 (Sim.Env.time env);
  (* normal exit: step says stop at cycle 4, its tick still commits *)
  let env2 = Sim.Env.create ~seed:1 () in
  let n2 = Sim.Engine.run_until env2 (fun c -> c < 4) in
  check int_t "normal exit: cycles" 5 n2;
  check int_t "normal exit: committed ticks" 5 (Sim.Env.time env2)

(* --- satellite: Wordlength.assign LSB clamp ---------------------------- *)

let test_wordlength_lsb_clamp () =
  (* x * 1e150 * 1e150: the inner product node has noise gain 1e300 to
     the output; with a tiny budget, q underflows to exactly 0 and the
     unclamped log2 was -inf (unspecified int conversion) *)
  let g = Sfg.Graph.create () in
  let x = Sfg.Graph.input g "x" ~lo:(-1.0) ~hi:1.0 in
  let m1 = Sfg.Graph.mul g ~name:"m1" x (Sfg.Graph.const g ~name:"k1" 1e150) in
  let m2 =
    Sfg.Graph.mul g ~name:"m2" m1 (Sfg.Graph.const g ~name:"k2" 1e150)
  in
  Sfg.Graph.mark_output g "y" (Sfg.Graph.alias g ~name:"y" m2);
  let r = Sfg.Wordlength.assign g ~output:"y" ~sigma_budget:1e-15 in
  List.iter
    (fun (a : Sfg.Wordlength.assignment) ->
      match a.Sfg.Wordlength.lsb with
      | Some l ->
          check bool_t
            (Printf.sprintf "%s lsb %d within float exponent range"
               a.Sfg.Wordlength.name l)
            true
            (l >= -1074 && l <= 1023)
      | None -> ())
    r.Sfg.Wordlength.assignments;
  let m1a =
    List.find
      (fun (a : Sfg.Wordlength.assignment) -> a.Sfg.Wordlength.name = "m1")
      r.Sfg.Wordlength.assignments
  in
  check bool_t "huge-gain node clamps to the subnormal floor" true
    (m1a.Sfg.Wordlength.lsb = Some (-1074))

let test_wordlength_inverted_total () =
  (* a tiny-range signal under a huge budget: msb < lsb — no
     representable width, so the total must refuse, not go negative *)
  let g = Sfg.Graph.create () in
  let x = Sfg.Graph.input g "x" ~lo:(-1e-8) ~hi:1e-8 in
  let y = Sfg.Graph.add g ~name:"s" x x in
  Sfg.Graph.mark_output g "y" (Sfg.Graph.alias g ~name:"y" y);
  let r = Sfg.Wordlength.assign g ~output:"y" ~sigma_budget:1e6 in
  let inverted =
    List.exists
      (fun (a : Sfg.Wordlength.assignment) ->
        match (a.Sfg.Wordlength.msb, a.Sfg.Wordlength.lsb) with
        | Some m, Some l -> m < l
        | _ -> false)
      r.Sfg.Wordlength.assignments
  in
  check bool_t "setup produced an inverted format" true inverted;
  check bool_t "inverted format refuses a total" true
    (r.Sfg.Wordlength.total_bits = None)

(* --- satellite: Extract.graph missing-output error --------------------- *)

let test_extract_missing_output () =
  let env = Sim.Env.create ~seed:1 () in
  let x = Sim.Signal.create env "x" in
  let _y = Sim.Signal.create env "y" in
  match
    Sim.Extract.graph env ~outputs:[ "y" ]
      ~step:(fun () ->
        let open Sim.Ops in
        x <-- Sim.Value.of_float 0.5)
      ()
  with
  | _ -> Alcotest.fail "expected Invalid_argument for unassigned output"
  | exception Invalid_argument m ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0
      in
      check bool_t "error names the output" true (contains m "\"y\"");
      check bool_t "error says never assigned" true
        (contains m "never assigned")

let suite =
  ( "compile",
    [
      Alcotest.test_case "byte equality: modes x batches" `Quick
        test_equality_modes_batches;
      qcheck_batch_no_reorder;
      Alcotest.test_case "per-lane dtypes = their own batch-1 runs" `Quick
        test_lane_dtypes;
      Alcotest.test_case "saturate and min/max at signed zeros = interpreter"
        `Quick test_saturate_signed_zeros;
      Alcotest.test_case "step_once from reset = run ~steps:1" `Quick
        test_step_once_is_run_step;
      Alcotest.test_case "write_state/read_state round trip" `Quick
        test_state_round_trip;
      Alcotest.test_case "step_once raises on NaN at a cast" `Quick
        test_step_once_nan_raises;
      Alcotest.test_case "fir compiled metrics = interpreted" `Quick
        test_fir_compiled_metric_parity;
      Alcotest.test_case "conformance workloads: compiled oracle gate"
        `Quick test_conformance_gate;
      Alcotest.test_case "run_until: both exits count committed ticks"
        `Quick test_run_until_exits;
      Alcotest.test_case "wordlength lsb clamps at float exponent range"
        `Quick test_wordlength_lsb_clamp;
      Alcotest.test_case "wordlength total rejects inverted formats" `Quick
        test_wordlength_inverted_total;
      Alcotest.test_case "extract: unassigned output raises" `Quick
        test_extract_missing_output;
    ] )
