(* Unit + property tests: the bit-level verification oracle.

   The contract under test is agreement with brute force: on graphs
   small enough to enumerate, [Verify.Engine]'s exhaustive verdicts
   must match what simulating {e every} input sequence says — [Proved]
   no-overflow means no sequence makes any quantizer overflow, and a
   [Refuted] counterexample must actually reproduce its violation in
   the interpreter.  Plus the pinned regression pair: the
   under-provisioned biquad is refuted (and its counterexample drives
   [Refine.Eval.evaluate_compiled] into a nonzero overflow count) while
   the one-extra-MSB repair of the same filter is proved.  And the
   search's own invariants: the verdicts of every [fxrefine verify]
   target are pinned, the lane-batched limit-cycle scan equals the
   one-walk-at-a-time scan it replaced, and spans leave reports
   unchanged. *)

open Fixrefine

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* --- brute-force oracle ------------------------------------------------ *)

(* All grid points of [dt] inside [lo, hi] — the same admissible-input
   alphabet the engine derives for an input whose sole consumer is a
   quantizer of type [dt]. *)
let grid dt ~lo ~hi =
  let step = Fixpt.Dtype.step dt in
  let klo = int_of_float (Float.round (lo /. step)) in
  let khi = int_of_float (Float.round (hi /. step)) in
  List.init (khi - klo + 1) (fun i -> float_of_int (klo + i) *. step)

(* Simulate [g] on one input sequence and recompute every [Quantize]
   node's cast from its input trace — [Some (node, step)] at the first
   overflow, independent of the engine's own bookkeeping. *)
let first_overflow g ~seq =
  let steps = Array.length seq in
  let traces =
    Sfg.Graph.simulate g ~steps ~inputs:(fun _name step -> seq.(step))
  in
  let trace_of id = List.assoc (Sfg.Graph.node g id).Sfg.Node.name traces in
  let found = ref None in
  List.iter
    (fun (n : Sfg.Node.t) ->
      match n.Sfg.Node.op with
      | Sfg.Node.Quantize dt ->
          let src = trace_of (List.hd n.Sfg.Node.inputs) in
          Array.iteri
            (fun step v ->
              let o = Fixpt.Quantize.quantize dt v in
              if o.Fixpt.Quantize.overflow <> None && !found = None then
                found := Some (n.Sfg.Node.name, step))
            src
      | _ -> ())
    (Sfg.Graph.nodes g);
  !found

(* Every sequence of length [len] over [alphabet], applied to [f]. *)
let rec for_all_seqs alphabet ~len ~prefix f =
  if len = 0 then f (Array.of_list (List.rev prefix))
  else
    List.for_all
      (fun v -> for_all_seqs alphabet ~len:(len - 1) ~prefix:(v :: prefix) f)
      alphabet

(* --- a random family of small closed feedback filters ------------------ *)

(* First-order feedback section: x in [-1,1] -> input quantizer (sole
   consumer, grid alphabet of 2^(fin+1)+1 letters) -> y = Q_acc(xq +/-
   c*y1) with y1 = z^-1 y.  Small enough that the engine's alphabet is
   always exhaustive and brute force over all length-4 sequences is
   cheap; varied enough (gain, accumulator width) that both verdicts
   occur. *)
let section1 ~fin ~acc_bits ~coef ~sub () =
  let g = Sfg.Graph.create () in
  let x = Sfg.Graph.input g "x" ~lo:(-1.0) ~hi:1.0 in
  let in_dt = Fixpt.Dtype.make "xq" ~n:(fin + 2) ~f:fin () in
  let xq = Sfg.Graph.quantize g ~name:"xq" in_dt x in
  let y1 = Sfg.Graph.delay g "y1" in
  let c = Sfg.Graph.const g ~name:"c" coef in
  let cy = Sfg.Graph.mul g ~name:"cy" c y1 in
  let s =
    if sub then Sfg.Graph.sub g ~name:"s" xq cy
    else Sfg.Graph.add g ~name:"s" xq cy
  in
  let acc_dt = Fixpt.Dtype.make "acc" ~n:acc_bits ~f:2 () in
  let y = Sfg.Graph.quantize g ~name:"y" acc_dt s in
  Sfg.Graph.connect_delay g y1 y;
  Sfg.Graph.mark_output g "y" y;
  Sfg.Graph.validate_exn g;
  (g, in_dt)

let gen_section =
  QCheck2.Gen.(
    map
      (fun (fin, acc_bits, ci, sub) ->
        (fin, acc_bits, [| 0.5; 0.75; 1.25; 1.5 |].(ci), sub))
      (tup4 (int_range 0 1) (int_range 3 6) (int_range 0 3) bool))

let verify_exhaustive prop g =
  Verify.Engine.verify ~max_bits:10 ~depth:64 ~max_states:100_000 prop g

(* Exhaustive no-overflow verdicts agree with brute force over all
   length-4 input sequences. *)
let prop_no_overflow_agrees =
  QCheck2.Test.make ~name:"verify no-overflow agrees with brute force"
    ~count:60 gen_section (fun (fin, acc_bits, coef, sub) ->
      let g, in_dt = section1 ~fin ~acc_bits ~coef ~sub () in
      let r = verify_exhaustive Verify.Engine.No_overflow g in
      if not r.Verify.Engine.stats.Verify.Engine.exhaustive then
        QCheck2.Test.fail_report "alphabet not exhaustive";
      let alphabet = grid in_dt ~lo:(-1.0) ~hi:1.0 in
      let brute_safe =
        for_all_seqs alphabet ~len:4 ~prefix:[] (fun seq ->
            first_overflow g ~seq = None)
      in
      match r.Verify.Engine.verdict with
      | Verify.Engine.Proved -> brute_safe
      | Verify.Engine.Refuted ce ->
          (* a refutation may sit deeper than the brute-force horizon,
             but its own stimulus must reproduce in the interpreter *)
          let seq =
            match ce.Verify.Engine.stimulus with
            | [ (_, samples) ] -> samples
            | _ -> QCheck2.Test.fail_report "expected one input"
          in
          (match first_overflow g ~seq with
          | Some _ -> ()
          | None -> QCheck2.Test.fail_report "counterexample does not overflow");
          (match Verify.Engine.confirm g ce with
          | Ok () -> ()
          | Error e -> QCheck2.Test.fail_report ("confirm: " ^ e));
          true
      | Verify.Engine.Bounded_out why ->
          QCheck2.Test.fail_report ("exhaustive search bounded out: " ^ why))

(* Proved no-limit-cycle means the zero-input response from any short
   stimulus prefix decays to the all-zero register state. *)
let prop_limit_cycle_decays =
  QCheck2.Test.make ~name:"verify proved limit-cycle implies decay" ~count:40
    gen_section (fun (fin, acc_bits, coef, sub) ->
      let g, in_dt = section1 ~fin ~acc_bits ~coef ~sub () in
      let r = verify_exhaustive Verify.Engine.No_limit_cycle g in
      match r.Verify.Engine.verdict with
      | Verify.Engine.Proved ->
          let alphabet = grid in_dt ~lo:(-1.0) ~hi:1.0 in
          let tail = 64 in
          for_all_seqs alphabet ~len:3 ~prefix:[] (fun prefix ->
              let steps = Array.length prefix + tail in
              let seq =
                Array.init steps (fun i ->
                    if i < Array.length prefix then prefix.(i) else 0.0)
              in
              let traces =
                Sfg.Graph.simulate g ~steps ~inputs:(fun _ s -> seq.(s))
              in
              (* the register is the y1 delay: decayed means its last
                 sample is exactly zero *)
              let y1 = List.assoc "y1" traces in
              y1.(steps - 1) = 0.0)
      | Verify.Engine.Refuted ce -> (
          match Verify.Engine.confirm g ce with
          | Ok () -> true
          | Error e -> QCheck2.Test.fail_report ("confirm: " ^ e))
      | Verify.Engine.Bounded_out why ->
          QCheck2.Test.fail_report ("exhaustive search bounded out: " ^ why))

(* --- pinned regressions: the biquad pair -------------------------------- *)

let refute_under () =
  let g = Verify.Designs.biquad_under () in
  let r = verify_exhaustive Verify.Engine.No_overflow g in
  match r.Verify.Engine.verdict with
  | Verify.Engine.Refuted ce -> ce
  | _ -> Alcotest.fail "biquad-under: expected Refuted"

let test_biquad_under_refuted () =
  let ce = refute_under () in
  (match ce.Verify.Engine.violation with
  | Verify.Engine.Overflow { node; _ } ->
      check Alcotest.string "refuted node" "y" node
  | _ -> Alcotest.fail "expected an overflow violation");
  check bool_t "confirm" true
    (Verify.Engine.confirm (Verify.Designs.biquad_under ()) ce = Ok ())

(* The emitted counterexample must drive the sweep's own compiled
   candidate evaluator into a nonzero overflow count — the stimulus is
   an admissible sweep stimulus, not just an engine-internal artifact. *)
let test_counterexample_drives_eval () =
  let ce = refute_under () in
  let eval =
    {
      Refine.Eval.extract = (fun () -> Verify.Designs.biquad_under ());
      cycles = ce.Verify.Engine.steps;
      stimulus =
        (fun ~seeds name step dst off ->
          Array.fill dst off (Array.length seeds)
            (List.assoc name ce.Verify.Engine.stimulus).(step));
    }
  in
  let env = Sim.Env.create () in
  let design =
    { Refine.Flow.env; reset = (fun () -> ()); run = (fun () -> ()) }
  in
  let m = Refine.Eval.evaluate_compiled ~seed:0 eval design in
  check bool_t "counterexample overflows in Eval" true
    (m.Refine.Eval.overflow_count > 0)

let test_biquad_repaired_proved () =
  let g = Verify.Designs.biquad_repaired () in
  let r = verify_exhaustive Verify.Engine.No_overflow g in
  check bool_t "proved" true (r.Verify.Engine.verdict = Verify.Engine.Proved);
  check bool_t "exhaustive" true r.Verify.Engine.stats.Verify.Engine.exhaustive;
  (* the very stimulus that kills the 5-bit accumulator is harmless on
     the 6-bit one *)
  let ce = refute_under () in
  let seq = List.assoc "x" ce.Verify.Engine.stimulus in
  check bool_t "repair absorbs the counterexample" true
    (first_overflow g ~seq = None)

(* --- counterexample serialization --------------------------------------- *)

let test_stim_roundtrip () =
  let ce = refute_under () in
  let text = Verify.Stim.to_string ~property:Verify.Engine.No_overflow ce in
  match Verify.Stim.of_string text with
  | Error e -> Alcotest.fail e
  | Ok (prop, ce') ->
      check bool_t "property" true (prop = Verify.Engine.No_overflow);
      check int_t "steps" ce.Verify.Engine.steps ce'.Verify.Engine.steps;
      check bool_t "violation" true
        (ce.Verify.Engine.violation = ce'.Verify.Engine.violation);
      List.iter2
        (fun (n, s) (n', s') ->
          check Alcotest.string "input name" n n';
          Array.iteri
            (fun i v ->
              if Int64.bits_of_float v <> Int64.bits_of_float s'.(i) then
                Alcotest.failf "sample %d: %h <> %h" i v s'.(i))
            s)
        ce.Verify.Engine.stimulus ce'.Verify.Engine.stimulus;
      check Alcotest.string "re-render byte-identical" text
        (Verify.Stim.to_string ~property:prop ce')

let test_stim_rejects_garbage () =
  check bool_t "empty" true (Result.is_error (Verify.Stim.of_string ""));
  check bool_t "bad header" true
    (Result.is_error (Verify.Stim.of_string "# nope\n"));
  let ce = refute_under () in
  let text = Verify.Stim.to_string ~property:Verify.Engine.No_overflow ce in
  (* truncating a sample row breaks the length invariant *)
  let broken =
    String.concat "\n"
      (List.map
         (fun line ->
           if String.length line > 8 && String.sub line 0 8 = "input x " then
             "input x 0x1p+0"
           else line)
         (String.split_on_char '\n' text))
  in
  check bool_t "length mismatch" true
    (Result.is_error (Verify.Stim.of_string broken))

(* --- the lane-batched limit-cycle scan ------------------------------------ *)

(* The oracle: the zero-input scan as it ran before walks became lanes,
   one walk at a time on a batch-1 program, kept verbatim apart from its
   inputs (the state list, the zero feed) and its result type. *)
module Oracle_scan = struct
  module Dyn = struct
    type 'a t = { mutable a : 'a array; mutable n : int; dummy : 'a }

    let create dummy = { a = Array.make 64 dummy; n = 0; dummy }

    let push t x =
      if t.n = Array.length t.a then begin
        let b = Array.make (2 * t.n) t.dummy in
        Array.blit t.a 0 b 0 t.n;
        t.a <- b
      end;
      t.a.(t.n) <- x;
      t.n <- t.n + 1

    let get t i = t.a.(i)
    let len t = t.n
  end

  type search = {
    sts : float array Dyn.t;
    mutable transitions : int;
    mutable crashed : bool;
  }

  let key_of nr (st : float array) =
    let b = Bytes.create (nr * 8) in
    for r = 0 to nr - 1 do
      Bytes.set_int64_le b (r * 8) (Int64.bits_of_float st.(r))
    done;
    Bytes.unsafe_to_string b

  open Verify.Engine.For_testing

  let scan_limit_cycles ~prog1 ~zero_inputs ~search ~horizon =
    let nr = Compile.register_count prog1 in
    let decays : (string, unit) Hashtbl.t = Hashtbl.create 1024 in
    let all_zero st = Array.for_all (fun v -> v = 0.0) st in
    let result = ref Lc_none in
    let sid = ref 0 in
    while !sid < Dyn.len search.sts && (match !result with Lc_found _ -> false | _ -> true) do
      let cur = Array.copy (Dyn.get search.sts !sid) in
      let seen = Hashtbl.create 64 in
      let traj = Dyn.create "" in
      let resolved = ref false in
      while not !resolved do
        let k = key_of nr cur in
        if Hashtbl.mem decays k then begin
          for i = 0 to Dyn.len traj - 1 do
            Hashtbl.replace decays (Dyn.get traj i) ()
          done;
          resolved := true
        end
        else
          match Hashtbl.find_opt seen k with
          | Some j ->
              let period = Dyn.len traj - j in
              let nonzero = not (all_zero cur) in
              if nonzero then result := Lc_found { sid = !sid; start = j; period }
              else
                for i = 0 to Dyn.len traj - 1 do
                  Hashtbl.replace decays (Dyn.get traj i) ()
                done;
              resolved := true
          | None ->
              if Dyn.len traj >= horizon then begin
                if !result = Lc_none then result := Lc_unknown;
                resolved := true
              end
              else begin
                Hashtbl.add seen k (Dyn.len traj);
                Dyn.push traj k;
                Compile.write_state prog1 ~lane:0 cur;
                search.transitions <- search.transitions + 1;
                match
                  Compile.step_once prog1 ~step:(Dyn.len traj) ~inputs:zero_inputs
                with
                | exception Invalid_argument _ ->
                    search.crashed <- true;
                    if !result = Lc_none then result := Lc_unknown;
                    resolved := true
                | () -> Compile.read_state prog1 ~lane:0 cur
              end
      done;
      incr sid
    done;
    !result

  let run g ~states ~horizon =
    let prog1 = Compile.compile ~batch:1 g in
    Compile.reset prog1;
    let search = { sts = Dyn.create [||]; transitions = 0; crashed = false } in
    List.iter (Dyn.push search.sts) states;
    let r =
      scan_limit_cycles ~prog1
        ~zero_inputs:(fun _ ~lane:_ -> 0.0)
        ~search ~horizon
    in
    (r, search.transitions, search.crashed)
end

(* Second-order direct-form section under zero input: y = Q(xq + a*r1 +
   b*r2), r1 = z^-1 y, r2 = z^-1 r1.  Rounding and the feedback gains
   give decays, all-zero fixed points and limit cycles; with [trip] a
   node Q((r2 - k) / (r2 - k)) raises (0/0 = NaN at a cast) on every
   state whose r2 is [k]. *)
let section2 ~a ~b ~acc_bits ~floor ~trip () =
  let g = Sfg.Graph.create () in
  let x = Sfg.Graph.input g "x" ~lo:(-1.0) ~hi:1.0 in
  let xq =
    Sfg.Graph.quantize g ~name:"xq" (Fixpt.Dtype.make "xq" ~n:4 ~f:2 ()) x
  in
  let r1 = Sfg.Graph.delay g "r1" in
  let r2 = Sfg.Graph.delay g "r2" in
  let ar1 = Sfg.Graph.mul g (Sfg.Graph.const g a) r1 in
  let br2 = Sfg.Graph.mul g (Sfg.Graph.const g b) r2 in
  let s = Sfg.Graph.add g (Sfg.Graph.add g xq ar1) br2 in
  let acc =
    Fixpt.Dtype.make "acc" ~n:acc_bits ~f:2
      ~round:(if floor then Fixpt.Round_mode.Floor else Fixpt.Round_mode.Round)
      ()
  in
  let y = Sfg.Graph.quantize g ~name:"y" acc s in
  Sfg.Graph.connect_delay g r1 y;
  Sfg.Graph.connect_delay g r2 r1;
  (match trip with
  | Some k ->
      let d = Sfg.Graph.sub g r2 (Sfg.Graph.const g k) in
      ignore (Sfg.Graph.quantize g ~name:"trip" acc (Sfg.Graph.div g d d))
  | None -> ());
  Sfg.Graph.mark_output g "y" y;
  Sfg.Graph.validate_exn g;
  g

(* A register value on the accumulator grid. *)
let acc_value ~acc_bits k =
  let half = 1 lsl (acc_bits - 1) in
  Float.of_int ((k mod (2 * half)) - half) *. 0.25

let gen_scan_case =
  QCheck2.Gen.(
    let* a = map (fun i -> Float.of_int i *. 0.25) (int_range (-7) 7) in
    let* b = map (fun i -> Float.of_int i *. 0.25) (int_range (-4) 2) in
    let* acc_bits = int_range 3 6 in
    let* floor = bool in
    let* trip = opt ~ratio:0.3 (map (acc_value ~acc_bits) (int_bound 63)) in
    let* states =
      list_size (int_range 1 40)
        (map
           (fun (i, j) -> [| acc_value ~acc_bits i; acc_value ~acc_bits j |])
           (pair (int_bound 63) (int_bound 63)))
    in
    let* lanes = int_range 1 9 in
    let* horizon = int_range 1 24 in
    return (a, b, acc_bits, floor, trip, states, lanes, horizon))

let print_scan_case (a, b, acc_bits, floor, trip, states, lanes, horizon) =
  Printf.sprintf
    "a=%g b=%g acc_bits=%d floor=%b trip=%s lanes=%d horizon=%d states=[%s]"
    a b acc_bits floor
    (match trip with Some k -> string_of_float k | None -> "none")
    lanes horizon
    (String.concat "; "
       (List.map (fun s -> Printf.sprintf "%g,%g" s.(0) s.(1)) states))

let show_scan (r, transitions, crashed) =
  Printf.sprintf "%s, %d transitions%s"
    (match r with
    | Verify.Engine.For_testing.Lc_none -> "none"
    | Lc_unknown -> "unknown"
    | Lc_found { sid; start; period } ->
        Printf.sprintf "found (sid %d, start %d, period %d)" sid start period)
    transitions
    (if crashed then ", crashed" else "")

(* The lane scan's result, transition count and crash flag equal the
   one-walk-at-a-time oracle's, at every lane width. *)
let prop_scan_matches_oracle =
  QCheck2.Test.make ~name:"lane limit-cycle scan = sequential scan" ~count:300
    ~print:print_scan_case gen_scan_case
    (fun (a, b, acc_bits, floor, trip, states, lanes, horizon) ->
      let g = section2 ~a ~b ~acc_bits ~floor ~trip () in
      let want = Oracle_scan.run g ~states ~horizon in
      let got =
        Verify.Engine.For_testing.scan_limit_cycles ~lanes g ~states ~horizon
      in
      if got <> want then
        QCheck2.Test.fail_reportf "lane scan %s, oracle %s" (show_scan got)
          (show_scan want);
      true)

(* --- pinned verdicts ------------------------------------------------------ *)

(* MD5 of the 16 [report_to_json] lines (every [fxrefine verify] target
   x both properties, newline-joined) at two budgets: the perfbench
   verify-bounded budget and the conformance gate's.  Any change to a
   verdict, counterexample or search counter moves a pin. *)
let verdicts_md5 verify =
  Oracle.Verify_check.targets ()
  |> List.concat_map (fun (_, mk) ->
         List.map
           (fun prop -> Verify.Engine.report_to_json (verify prop (mk ())))
           [ Verify.Engine.No_overflow; Verify.Engine.No_limit_cycle ])
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let test_verdicts_pinned () =
  check Alcotest.string "max_states 1024" "e1e4eec2e14f2dfc165010c21322d544"
    (verdicts_md5 (Verify.Engine.verify ~max_states:1024));
  check Alcotest.string "Verify_check budget" "3978be8af5ef8f277aa2895ca309b80a"
    (verdicts_md5
       (Verify.Engine.verify ~max_bits:Oracle.Verify_check.max_bits
          ~depth:Oracle.Verify_check.depth
          ~max_states:Oracle.Verify_check.max_states))

(* Spans are wall-clock only: recording them leaves every report
   byte-identical, and a refuted limit-cycle run records each phase. *)
let test_spans_leave_reports () =
  let reports () =
    List.concat_map
      (fun prop ->
        List.map
          (fun g -> Verify.Engine.report_to_json (verify_exhaustive prop g))
          [ Verify.Designs.biquad_under (); Verify.Designs.biquad_repaired () ])
      [ Verify.Engine.No_overflow; Verify.Engine.No_limit_cycle ]
  in
  let off = reports () in
  Trace.Spans.reset ();
  Trace.Spans.set_enabled true;
  let on =
    Fun.protect ~finally:(fun () -> Trace.Spans.set_enabled false) reports
  in
  let names =
    List.filter_map
      (fun (sp : Trace.Spans.span) ->
        if sp.Trace.Spans.cat = "verify" then Some sp.Trace.Spans.name
        else None)
      (Trace.Spans.drain ())
  in
  check (Alcotest.list Alcotest.string) "reports" off on;
  List.iter
    (fun phase ->
      check bool_t (phase ^ " span recorded") true (List.mem phase names))
    [ "explore"; "scan"; "confirm" ]

let suite =
  ( "verify",
    [
      Alcotest.test_case "verdicts pinned" `Quick test_verdicts_pinned;
      Alcotest.test_case "spans leave reports unchanged" `Quick
        test_spans_leave_reports;
      Alcotest.test_case "biquad-under refuted" `Quick test_biquad_under_refuted;
      Alcotest.test_case "counterexample drives Eval" `Quick
        test_counterexample_drives_eval;
      Alcotest.test_case "biquad-repaired proved" `Quick
        test_biquad_repaired_proved;
      Alcotest.test_case "stim round-trip" `Quick test_stim_roundtrip;
      Alcotest.test_case "stim rejects garbage" `Quick test_stim_rejects_garbage;
      Test_support.Qseed.to_alcotest prop_no_overflow_agrees;
      Test_support.Qseed.to_alcotest prop_limit_cycle_decays;
      Test_support.Qseed.to_alcotest prop_scan_matches_oracle;
    ] )
