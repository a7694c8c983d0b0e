(* Unit tests: the observability layer — counting sink semantics
   (wrap/sat split, round/floor split, watermark + cycle), sink replay
   on attach, commutative merge, ring-buffer flight recorder, span
   recording, Chrome export, sweep counter determinism, observer
   neutrality, and the null-sink zero-allocation contract. *)

open Fixrefine
open Sim.Ops

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string
let float_t = Alcotest.float 1e-9

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* --- counting sink on a live simulation -------------------------------- *)

let test_counters_wrap_sat_round_floor () =
  let env = Sim.Env.create () in
  let wrap_dt =
    Fixpt.Dtype.make "w" ~n:4 ~f:2 ~round:Fixpt.Round_mode.Round
      ~overflow:Fixpt.Overflow_mode.Wrap ()
  in
  let sat_dt =
    Fixpt.Dtype.make "s" ~n:4 ~f:2 ~round:Fixpt.Round_mode.Floor
      ~overflow:Fixpt.Overflow_mode.Saturate ()
  in
  let w = Sim.Signal.create env ~dtype:wrap_dt "w" in
  let s = Sim.Signal.create env ~dtype:sat_dt "s" in
  let u = Sim.Signal.create env "u" in
  let ctr = Trace.Counters.create () in
  Sim.Env.set_sink env (Trace.Counters.sink ctr);
  (* in-range quantized assigns *)
  w <-- cst 0.6;
  s <-- cst 0.6;
  u <-- cst 0.6;
  (* out-of-range: <4,2> spans [-2, 1.75] *)
  w <-- cst 3.0;
  s <-- cst 3.0;
  Sim.Env.clear_sink env;
  (* events after detach are not counted *)
  w <-- cst 0.25;
  let slot name =
    match
      List.find_opt
        (fun (_, c) -> String.equal c.Trace.Counters.cs_name name)
        (Trace.Counters.signals ctr)
    with
    | Some (_, c) -> c
    | None -> Alcotest.failf "no counters for %s" name
  in
  let cw = slot "w" and cs = slot "s" and cu = slot "u" in
  check int_t "w assigns" 2 cw.Trace.Counters.assigns;
  check int_t "w quantized" 2 cw.Trace.Counters.quantized;
  check int_t "w rounds" 2 cw.Trace.Counters.rounds;
  check int_t "w floors" 0 cw.Trace.Counters.floors;
  check int_t "w wraps" 1 cw.Trace.Counters.wraps;
  check int_t "w sats" 0 cw.Trace.Counters.sats;
  check int_t "s floors" 2 cs.Trace.Counters.floors;
  check int_t "s rounds" 0 cs.Trace.Counters.rounds;
  check int_t "s sats" 1 cs.Trace.Counters.sats;
  check int_t "s wraps" 0 cs.Trace.Counters.wraps;
  check int_t "unquantized assigns" 1 cu.Trace.Counters.assigns;
  check int_t "unquantized casts" 0 cu.Trace.Counters.quantized;
  check int_t "totals" 5 (Trace.Counters.total_assigns ctr);
  check int_t "total overflows" 2 (Trace.Counters.total_overflows ctr)

let test_counters_watermark_cycle () =
  let env = Sim.Env.create () in
  let dt =
    Fixpt.Dtype.make "t" ~n:8 ~f:2 ~overflow:Fixpt.Overflow_mode.Saturate ()
  in
  let s = Sim.Signal.create env ~dtype:dt "s" in
  let ctr = Trace.Counters.create () in
  Sim.Env.set_sink env (Trace.Counters.sink ctr);
  s <-- cst 0.26;
  (* |eps| = 0.01 at cycle 0 *)
  Sim.Env.tick env;
  Sim.Env.tick env;
  s <-- cst 0.35;
  (* |eps| = 0.1 at cycle 2 — the watermark *)
  Sim.Env.tick env;
  s <-- cst 0.3;
  (* |eps| = 0.05: below, must not move the watermark *)
  let _, c = List.hd (Trace.Counters.signals ctr) in
  check float_t "watermark magnitude" 0.1 c.Trace.Counters.err_max;
  check int_t "watermark cycle" 2 c.Trace.Counters.err_max_time

let test_set_sink_replays_registrations () =
  (* signals created before the sink attaches are announced on attach *)
  let env = Sim.Env.create () in
  let a = Sim.Signal.create env "a" in
  let _b = Sim.Signal.create env "b" in
  let ctr = Trace.Counters.create () in
  Sim.Env.set_sink env (Trace.Counters.sink ctr);
  a <-- cst 1.0;
  let names =
    List.map
      (fun (_, c) -> c.Trace.Counters.cs_name)
      (Trace.Counters.signals ctr)
  in
  check bool_t "both signals replayed" true
    (List.mem "a" names && List.mem "b" names);
  check int_t "assign after attach counted" 1 (Trace.Counters.total_assigns ctr)

let test_tee_feeds_both () =
  let env = Sim.Env.create () in
  let s = Sim.Signal.create env "s" in
  let ctr = Trace.Counters.create () in
  let ring = Trace.Ring.create ~capacity:8 () in
  Sim.Env.set_sink env
    (Trace.Sink.tee (Trace.Counters.sink ctr) (Trace.Ring.sink ring));
  s <-- cst 1.0;
  s <-- cst 2.0;
  check int_t "counters side" 2 (Trace.Counters.total_assigns ctr);
  check int_t "ring side" 2 (Trace.Ring.length ring)

(* --- merge discipline --------------------------------------------------- *)

(* Drive a counter set directly through its sink. *)
let mk_counter spec =
  let c = Trace.Counters.create () in
  let s = Trace.Counters.sink c in
  List.iter
    (fun (id, name, events) ->
      s.Trace.Sink.on_register ~id ~name;
      List.iter
        (fun (time, err) ->
          s.Trace.Sink.on_assign ~id ~time ~err ~quantized:true ~rounded:true)
        events)
    spec;
  c

let test_merge_commutative_associative () =
  let a = mk_counter [ (0, "x", [ (0, 0.5); (1, 0.25) ]) ] in
  let b = mk_counter [ (0, "x", [ (5, 0.75) ]); (1, "y", [ (2, 0.125) ]) ] in
  let c = mk_counter [ (1, "y", [ (7, 0.25) ]) ] in
  let j t = Trace.Counters.to_json t in
  check string_t "commutative" (j (Trace.Counters.merge a b))
    (j (Trace.Counters.merge b a));
  check string_t "associative"
    (j (Trace.Counters.merge (Trace.Counters.merge a b) c))
    (j (Trace.Counters.merge a (Trace.Counters.merge b c)))

let test_merge_watermark_tie_prefers_earlier_cycle () =
  let a = mk_counter [ (0, "x", [ (9, 0.5) ]) ] in
  let b = mk_counter [ (0, "x", [ (3, 0.5) ]) ] in
  let check_time t =
    let _, c = List.hd (Trace.Counters.signals t) in
    check float_t "watermark kept" 0.5 c.Trace.Counters.err_max;
    check int_t "tie takes the earlier cycle" 3 c.Trace.Counters.err_max_time
  in
  check_time (Trace.Counters.merge a b);
  check_time (Trace.Counters.merge b a)

let test_merge_name_mismatch_raises () =
  let a = mk_counter [ (0, "x", [ (0, 0.1) ]) ] in
  let b = mk_counter [ (0, "y", [ (0, 0.1) ]) ] in
  check bool_t "conflicting designs rejected" true
    (try
       ignore (Trace.Counters.merge a b);
       false
     with Invalid_argument _ -> true)

(* --- ring buffer --------------------------------------------------------- *)

let test_ring_wraps_and_orders () =
  let ring = Trace.Ring.create ~capacity:4 () in
  let s = Trace.Ring.sink ring in
  s.Trace.Sink.on_register ~id:0 ~name:"sig";
  for t = 1 to 6 do
    s.Trace.Sink.on_assign ~id:0 ~time:t ~err:(Float.of_int t)
      ~quantized:false ~rounded:false
  done;
  s.Trace.Sink.on_overflow ~id:0 ~time:7 ~raw:9.0 ~saturating:true;
  check int_t "length capped" 4 (Trace.Ring.length ring);
  check int_t "drops counted" 3 (Trace.Ring.dropped ring);
  check string_t "registered name" "sig" (Trace.Ring.name_of ring 0);
  let times =
    List.map
      (function
        | Trace.Ring.Assign { time; _ } -> time
        | Trace.Ring.Overflow { time; _ } -> time
        | Trace.Ring.Fault { time; _ } -> time)
      (Trace.Ring.events ring)
  in
  check bool_t "oldest first, newest retained" true (times = [ 4; 5; 6; 7 ]);
  check bool_t "bad capacity rejected" true
    (try
       ignore (Trace.Ring.create ~capacity:0 ());
       false
     with Invalid_argument _ -> true)

(* --- spans + Chrome export ----------------------------------------------- *)

let test_spans_gate_and_chrome_json () =
  Trace.Spans.reset ();
  Trace.Spans.set_enabled false;
  Trace.Spans.record ~cat:"test" ~name:"ignored" ~t0:0.0 ~t1:1.0 ();
  check int_t "disabled records nothing" 0 (List.length (Trace.Spans.drain ()));
  Trace.Spans.set_enabled true;
  Trace.Spans.record ~tid:2
    ~args:[ ("iterations", "3") ]
    ~cat:"refine" ~name:"msb-phase" ~t0:10.0 ~t1:10.5 ();
  let spans = Trace.Spans.drain () in
  Trace.Spans.set_enabled false;
  check int_t "enabled records" 1 (List.length spans);
  let ring = Trace.Ring.create ~capacity:4 () in
  let s = Trace.Ring.sink ring in
  s.Trace.Sink.on_register ~id:0 ~name:"acc";
  s.Trace.Sink.on_assign ~id:0 ~time:12 ~err:0.25 ~quantized:true
    ~rounded:false;
  let json = Trace.Chrome.to_json ~spans ~ring () in
  check bool_t "has trace events array" true (contains "\"traceEvents\"" json);
  check bool_t "has the span" true (contains "\"name\": \"msb-phase\"" json);
  check bool_t "span is a complete event" true (contains "\"ph\": \"X\"" json);
  check bool_t "span carries args" true (contains "\"iterations\"" json);
  check bool_t "ring instant present" true (contains "assign acc" json);
  check bool_t "cycle-time instant" true (contains "\"ph\": \"i\"" json)

(* --- sweep determinism + observer neutrality ----------------------------- *)

let small_sweep ~jobs ~counters () =
  let workload = Sweep.Workload.fir ~n:64 () in
  let generator =
    Sweep.Generator.grid ~specs:workload.Sweep.Workload.specs ~f_min:4
      ~f_max:6 ~seeds:[ 0 ]
  in
  Sweep.Pool.run ~jobs ~counters ~workload ~generator ()

let test_sweep_counters_jobs_deterministic () =
  let seq = small_sweep ~jobs:1 ~counters:true () in
  let par = small_sweep ~jobs:3 ~counters:true () in
  check bool_t "some events counted" true
    (match seq.Sweep.Report.agg_counters with
    | Some c -> Trace.Counters.total_assigns c > 0
    | None -> false);
  check string_t "counters byte-identical across jobs"
    (Sweep.Report.counters_json seq)
    (Sweep.Report.counters_json par)

let test_sweep_observer_neutral () =
  let counted = small_sweep ~jobs:1 ~counters:true () in
  let plain = small_sweep ~jobs:1 ~counters:false () in
  check string_t "report unchanged by counting"
    (Sweep.Report.to_json plain)
    (Sweep.Report.to_json counted)

(* --- null sink: allocation-free disabled path ---------------------------- *)

(* Minor words one call of [f] allocates, averaged over 10 000 calls
   after a warm-up (first calls may allocate monitors lazily). *)
let words_per_call f =
  for _ = 1 to 256 do
    f ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    f ()
  done;
  (Gc.minor_words () -. before) /. 10_000.0

(* One simulation value: a block of five floats and its header. *)
let value_block_words = float_of_int (1 + (5 * 64 / Sys.word_size))

let test_null_sink_allocation_smoke () =
  let env = Sim.Env.create () in
  let dt = Fixpt.Dtype.make "t" ~n:12 ~f:8 () in
  let s = Sim.Signal.create env ~dtype:dt "s" in
  let e = cst 0.5 in
  let per_assign =
    words_per_call (fun () ->
        s <-- e;
        Sim.Env.tick env)
  in
  (* the cast and the monitors are fed from the environment's float
     row, so an assignment allocates nothing; building the sink's event
     arguments (boxed floats + closure application) outside the
     null-sink guard would cost 10+ words and trip this bound *)
  check bool_t
    (Printf.sprintf "per-assign minor words %.2f < 1" per_assign)
    true (per_assign < 1.0)

(* Each read and each operator allocates its result and nothing else. *)
let check_one_block what f =
  let words = words_per_call (fun () -> ignore (Sys.opaque_identity (f ()))) in
  check bool_t
    (Printf.sprintf "%s: minor words %.2f <= one value (%.0f)" what words
       value_block_words)
    true
    (words <= value_block_words)

let test_read_allocation () =
  let env = Sim.Env.create () in
  let dt = Fixpt.Dtype.make "t" ~n:12 ~f:8 () in
  let s = Sim.Signal.create env ~dtype:dt "s" in
  s <-- cst 0.5;
  check_one_block "comb read" (fun () -> !!s)

let test_register_read_allocation () =
  let env = Sim.Env.create () in
  let dt =
    Fixpt.Dtype.make "t" ~n:12 ~f:8 ~overflow:Fixpt.Overflow_mode.Saturate ()
  in
  let r = Sim.Signal.create_reg env ~dtype:dt "r" in
  r <-- cst 0.5;
  Sim.Env.tick env;
  check_one_block "register read" (fun () -> !!r)

let test_operator_allocation () =
  let a = cst 0.5 and b = cst (-0.25) in
  check_one_block "+:" (fun () -> a +: b);
  check_one_block "*:" (fun () -> a *: b)

let suite =
  ( "trace",
    [
      Alcotest.test_case "counters wrap/sat round/floor" `Quick
        test_counters_wrap_sat_round_floor;
      Alcotest.test_case "counters watermark cycle" `Quick
        test_counters_watermark_cycle;
      Alcotest.test_case "set_sink replays registrations" `Quick
        test_set_sink_replays_registrations;
      Alcotest.test_case "tee feeds both sinks" `Quick test_tee_feeds_both;
      Alcotest.test_case "merge commutative+associative" `Quick
        test_merge_commutative_associative;
      Alcotest.test_case "merge watermark tie" `Quick
        test_merge_watermark_tie_prefers_earlier_cycle;
      Alcotest.test_case "merge name mismatch" `Quick
        test_merge_name_mismatch_raises;
      Alcotest.test_case "ring wrap and order" `Quick
        test_ring_wraps_and_orders;
      Alcotest.test_case "spans gate + chrome json" `Quick
        test_spans_gate_and_chrome_json;
      Alcotest.test_case "sweep counters deterministic" `Quick
        test_sweep_counters_jobs_deterministic;
      Alcotest.test_case "sweep observer neutral" `Quick
        test_sweep_observer_neutral;
      Alcotest.test_case "null sink allocation smoke" `Quick
        test_null_sink_allocation_smoke;
      Alcotest.test_case "comb read allocates one value" `Quick
        test_read_allocation;
      Alcotest.test_case "register read allocates one value" `Quick
        test_register_read_allocation;
      Alcotest.test_case "+: and *: allocate one value" `Quick
        test_operator_allocation;
    ] )
