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
        ~zero_inputs:(fun _ _ dst off -> dst.(off) <- 0.0)
        ~search ~horizon
    in
    (r, search.transitions, search.crashed)
end

(* Second-order direct-form section: y = Q(xq + a*r1 + b*r2), r1 =
   z^-1 y, r2 = z^-1 r1.  Rounding and the feedback gains give decays,
   all-zero fixed points and limit cycles under zero input; with [trip]
   a node Q((r2 - k) / (r2 - k)) raises (0/0 = NaN at a cast) on every
   state whose r2 is [k].  With [inputs = 2], xq is the sum of two
   quantized inputs x and u; with [inputs = 0], a constant 0.75.  [sat]
   makes y saturate instead of wrap.  [dressed] adds what the search's
   state cone leaves out or keeps without reading: alias chains on the
   inputs and on y (r1 registers y through two aliases), an output
   branch, a branch that feeds nothing, and a third register r3 = z^-1 y
   that nothing reads. *)
let section2 ?(inputs = 1) ?(sat = false) ?(dressed = false) ~a ~b ~acc_bits
    ~floor ~trip () =
  let g = Sfg.Graph.create () in
  let aliased name id =
    if dressed then
      Sfg.Graph.alias g ~name:(name ^ "''")
        (Sfg.Graph.alias g ~name:(name ^ "'") id)
    else id
  in
  let quantized name =
    let x = Sfg.Graph.input g name ~lo:(-1.0) ~hi:1.0 in
    Sfg.Graph.quantize g ~name:(name ^ "q")
      (Fixpt.Dtype.make (name ^ "q") ~n:4 ~f:2 ())
      (aliased name x)
  in
  let xq =
    match inputs with
    | 0 -> Sfg.Graph.const g 0.75
    | 1 -> quantized "x"
    | _ ->
        let xq = quantized "x" in
        Sfg.Graph.add g xq (quantized "u")
  in
  let r1 = Sfg.Graph.delay g "r1" in
  let r2 = Sfg.Graph.delay g "r2" in
  let ar1 = Sfg.Graph.mul g (Sfg.Graph.const g a) r1 in
  let br2 = Sfg.Graph.mul g (Sfg.Graph.const g b) r2 in
  let s = Sfg.Graph.add g (Sfg.Graph.add g xq ar1) br2 in
  let acc =
    Fixpt.Dtype.make "acc" ~n:acc_bits ~f:2
      ~overflow:
        (if sat then Fixpt.Overflow_mode.Saturate else Fixpt.Overflow_mode.Wrap)
      ~round:(if floor then Fixpt.Round_mode.Floor else Fixpt.Round_mode.Round)
      ()
  in
  let y = Sfg.Graph.quantize g ~name:"y" acc s in
  Sfg.Graph.connect_delay g r1 (aliased "y" y);
  Sfg.Graph.connect_delay g r2 r1;
  if dressed then begin
    let ya = Sfg.Graph.alias g ~name:"y_out" y in
    ignore (Sfg.Graph.delay_of g "r3" ya);
    let o = Sfg.Graph.mul g (Sfg.Graph.const g 3.0) ya in
    Sfg.Graph.mark_output g "o" (Sfg.Graph.add g o r2);
    ignore (Sfg.Graph.sub g r1 r2)
  end;
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
    let* dressed = bool in
    let* states =
      list_size (int_range 1 40)
        (map
           (fun (i, j, k) ->
             Array.map (acc_value ~acc_bits)
               (if dressed then [| i; j; k |] else [| i; j |]))
           (triple (int_bound 63) (int_bound 63) (int_bound 63)))
    in
    let* lanes = int_range 1 9 in
    let* horizon = int_range 1 24 in
    return ((a, b, acc_bits, floor, trip, dressed), states, lanes, horizon))

let print_scan_case
    ((a, b, acc_bits, floor, trip, dressed), states, lanes, horizon) =
  Printf.sprintf
    "a=%g b=%g acc_bits=%d floor=%b trip=%s dressed=%b lanes=%d horizon=%d \
     states=[%s]"
    a b acc_bits floor
    (match trip with Some k -> string_of_float k | None -> "none")
    dressed lanes horizon
    (String.concat "; "
       (List.map
          (fun s ->
            String.concat ","
              (Array.to_list (Array.map (Printf.sprintf "%g") s)))
          states))

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
    (fun ((a, b, acc_bits, floor, trip, dressed), states, lanes, horizon) ->
      let g = section2 ~dressed ~a ~b ~acc_bits ~floor ~trip () in
      let want = Oracle_scan.run g ~states ~horizon in
      let got =
        Verify.Engine.For_testing.scan_limit_cycles ~lanes g ~states ~horizon
      in
      if got <> want then
        QCheck2.Test.fail_reportf "lane scan %s, oracle %s" (show_scan got)
          (show_scan want);
      true)

(* --- the block search ---------------------------------------------------- *)

(* The oracle: the reachable-state search as it ran before blocks of
   states became lanes, one state at a time on a program with one lane
   per letter, kept verbatim apart from its feeds (row fillers, the
   form [Compile.step_once] takes now) and its result type. *)
module Oracle_explore = struct
  module Dyn = Oracle_scan.Dyn

  type search = {
    sts : float array Dyn.t;  (* state id -> register vector *)
    parent : (int * int) Dyn.t;  (* state id -> (pred id, letter) *)
    depth : int Dyn.t;
    mutable transitions : int;
    mutable truncated : bool;
    mutable crashed : bool;
    mutable hit : (int * int * string) option;  (* (state, letter, node) *)
  }

  let key_of = Oracle_scan.key_of

  (* Step the batch-1 twin from [st] under letter [l]: the successor
     state, the first quantizer that overflowed (schedule order), or the
     arithmetic escape. *)
  let step1 prog1 ~idx ~letters ~st ~l ~step =
    Compile.write_state prog1 ~lane:0 st;
    let before = Compile.overflows prog1 in
    match
      Compile.step_once prog1 ~step ~inputs:(fun name ->
          let i = idx name in
          fun _ dst off -> dst.(off) <- letters.(l).(i))
    with
    | exception Invalid_argument _ -> `Crash
    | () ->
        let after = Compile.overflows prog1 in
        let node =
          List.find_map
            (fun ((n, c0), (_, c1)) -> if c1 > c0 then Some n else None)
            (List.combine before after)
        in
        let nr = Compile.register_count prog1 in
        let succ = Array.make nr 0.0 in
        Compile.read_state prog1 ~lane:0 succ;
        `Step (succ, node)

  let new_search () =
    {
      sts = Dyn.create [||];
      parent = Dyn.create (-1, -1);
      depth = Dyn.create 0;
      transitions = 0;
      truncated = false;
      crashed = false;
      hit = None;
    }

  let explore ~prog ~prog1 ~idx ~letters ~max_states ~depth_limit
      ~stop_on_overflow =
    let nl = Array.length letters in
    let nr = Compile.register_count prog in
    let s = new_search () in
    let tbl = Hashtbl.create 1024 in
    let add ~pred ~letter ~d st =
      let k = key_of nr st in
      if not (Hashtbl.mem tbl k) then
        if Dyn.len s.sts >= max_states then s.truncated <- true
        else begin
          Hashtbl.add tbl k (Dyn.len s.sts);
          Dyn.push s.sts st;
          Dyn.push s.parent (pred, letter);
          Dyn.push s.depth d
        end
    in
    add ~pred:(-1) ~letter:(-1) ~d:0 (Compile.initial_state prog);
    let scratch = Array.make nr 0.0 in
    (* per-letter fallback: replay each letter on the twin to attribute
       overflows / salvage successors around a crash *)
    let slow_path sid st d =
      let l = ref 0 in
      while !l < nl && s.hit = None do
        (match step1 prog1 ~idx ~letters ~st ~l:!l ~step:d with
        | `Crash -> s.crashed <- true
        | `Step (succ, node) -> (
            match node with
            | Some n when stop_on_overflow -> s.hit <- Some (sid, !l, n)
            | _ -> add ~pred:sid ~letter:!l ~d:(d + 1) succ));
        incr l
      done
    in
    let cursor = ref 0 in
    while !cursor < Dyn.len s.sts && s.hit = None do
      let sid = !cursor in
      incr cursor;
      let d = Dyn.get s.depth sid in
      if depth_limit < 0 || d < depth_limit then begin
        let st = Dyn.get s.sts sid in
        for lane = 0 to nl - 1 do
          Compile.write_state prog ~lane st
        done;
        let ovf0 = Compile.overflow_count prog in
        s.transitions <- s.transitions + nl;
        match
          Compile.step_once prog ~step:d ~inputs:(fun name ->
              let i = idx name in
              fun _ dst off ->
                for lane = 0 to nl - 1 do
                  dst.(off + lane) <- letters.(lane).(i)
                done)
        with
        | exception Invalid_argument _ ->
            (* NaN escaped somewhere in the batch: redo this state on the
               twin so untainted letters still contribute successors *)
            slow_path sid st d
        | () ->
            let delta = Compile.overflow_count prog - ovf0 in
            if delta > 0 && stop_on_overflow then slow_path sid st d
            else
              for lane = 0 to nl - 1 do
                Compile.read_state prog ~lane scratch;
                add ~pred:sid ~letter:lane ~d:(d + 1) (Array.copy scratch)
              done
      end
      else s.truncated <- true
    done;
    s

  let run g ~letters ~max_states ~depth_limit ~stop_on_overflow =
    let prog = Compile.compile ~batch:(Array.length letters) g in
    let prog1 = Compile.compile ~batch:1 g in
    Compile.reset prog;
    Compile.reset prog1;
    let itbl = Hashtbl.create 4 in
    List.iteri
      (fun i name -> Hashtbl.replace itbl name i)
      (List.filter_map
         (fun (nd : Sfg.Node.t) ->
           match nd.Sfg.Node.op with
           | Sfg.Node.Input _ -> Some nd.Sfg.Node.name
           | _ -> None)
         (Sfg.Graph.nodes g));
    let s =
      explore ~prog ~prog1 ~idx:(Hashtbl.find itbl) ~letters ~max_states
        ~depth_limit ~stop_on_overflow
    in
    let list d = List.init (Dyn.len d) (Dyn.get d) in
    {
      Verify.Engine.For_testing.states = list s.sts;
      parents = list s.parent;
      depths = list s.depth;
      transitions = s.transitions;
      truncated = s.truncated;
      crashed = s.crashed;
      hit = s.hit;
    }
end

(* The blocks a search with result [e] formed at [per] states a block:
   from cursor [c], the next [per] states under the depth limit among
   those discovered once every state before [c] was expanded, up to the
   block that hit. *)
let blocks ~per ~depth_limit (e : Verify.Engine.For_testing.explored) =
  let parents = Array.of_list e.parents and depths = Array.of_list e.depths in
  let known c =
    Array.fold_left (fun k (p, _) -> if p < c then k + 1 else k) 0 parents
  in
  let hit = match e.hit with Some (h, _, _) -> h | None -> -1 in
  let rec go c acc =
    let len = known c in
    if c >= len then List.rev acc
    else begin
      let c = ref c and blk = ref [] in
      while List.length !blk < per && !c < len do
        if depth_limit < 0 || depths.(!c) < depth_limit then blk := !c :: !blk;
        incr c
      done;
      let blk = List.rev !blk in
      if List.mem hit blk then List.rev (blk :: acc) else go !c (blk :: acc)
    end
  in
  go 0 []

let gen_explore_case =
  QCheck2.Gen.(
    let* inputs = int_range 0 2 in
    let* a = map (fun i -> Float.of_int i *. 0.25) (int_range (-7) 7) in
    let* b = map (fun i -> Float.of_int i *. 0.25) (int_range (-4) 2) in
    let* acc_bits = int_range 3 6 in
    let* floor = bool in
    let* sat = bool in
    let* trip = opt ~ratio:0.3 (map (acc_value ~acc_bits) (int_bound 63)) in
    let* dressed = bool in
    let* nl =
      if inputs = 0 then return 1
      else oneof [ return 1; int_range 2 9; int_range 33 40 ]
    in
    let* letters =
      array_repeat nl
        (array_repeat inputs
           (map (fun i -> Float.of_int i *. 0.25) (int_range (-6) 6)))
    in
    let* max_states = int_range 1 120 in
    let* depth_limit = oneof [ return (-1); int_range 0 6 ] in
    let* stop_on_overflow = bool in
    return
      ( (inputs, a, b, acc_bits, floor, sat, trip, dressed),
        (letters, max_states, depth_limit, stop_on_overflow) ))

let print_explore_case
    ( (inputs, a, b, acc_bits, floor, sat, trip, dressed),
      (letters, max_states, depth_limit, stop_on_overflow) ) =
  Printf.sprintf
    "inputs=%d a=%g b=%g acc_bits=%d floor=%b sat=%b trip=%s dressed=%b \
     max_states=%d depth_limit=%d stop_on_overflow=%b letters=[%s]"
    inputs a b acc_bits floor sat
    (match trip with Some k -> string_of_float k | None -> "none")
    dressed max_states depth_limit stop_on_overflow
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun l ->
               String.concat "," (Array.to_list (Array.map string_of_float l)))
             letters)))

let show_explored (e : Verify.Engine.For_testing.explored) =
  Printf.sprintf "%d states, %d transitions%s%s%s" (List.length e.states)
    e.transitions
    (if e.truncated then ", truncated" else "")
    (if e.crashed then ", crashed" else "")
    (match e.hit with
    | Some (sid, l, n) ->
        Printf.sprintf ", hit %s at state %d letter %d" n sid l
    | None -> "")

(* The fields in which two results differ, states compared bitwise. *)
let explored_diff (a : Verify.Engine.For_testing.explored)
    (b : Verify.Engine.For_testing.explored) =
  let bits st = Array.map Int64.bits_of_float st in
  List.filter_map
    (fun (name, same) -> if same then None else Some name)
    [
      ("states", List.map bits a.states = List.map bits b.states);
      ("parents", a.parents = b.parents);
      ("depths", a.depths = b.depths);
      ("transitions", a.transitions = b.transitions);
      ("truncated", a.truncated = b.truncated);
      ("crashed", a.crashed = b.crashed);
      ("hit", a.hit = b.hit);
    ]

(* Run one case through the block search and the oracle: the oracle's
   result if they agree, else a failure naming both. *)
let explore_both
    ( (inputs, a, b, acc_bits, floor, sat, trip, dressed),
      (letters, max_states, depth_limit, stop_on_overflow) ) =
  let g = section2 ~inputs ~sat ~dressed ~a ~b ~acc_bits ~floor ~trip () in
  let got =
    Verify.Engine.For_testing.explore g ~letters ~max_states ~depth_limit
      ~stop_on_overflow
  in
  let want =
    Oracle_explore.run g ~letters ~max_states ~depth_limit ~stop_on_overflow
  in
  (match explored_diff got want with
  | [] -> ()
  | fields ->
      QCheck2.Test.fail_reportf "%s differ: block search %s, oracle %s"
        (String.concat ", " fields) (show_explored got) (show_explored want));
  want

(* The block search's states, parents, depths and counters equal the
   one-state-at-a-time oracle's. *)
let prop_explore_matches_oracle =
  QCheck2.Test.make ~name:"block explore = sequential explore" ~count:300
    ~print:print_explore_case gen_explore_case (fun case ->
      ignore (explore_both case);
      true)

(* The property's generator, at a seed of its own, reaches every edge
   of the block search, and every case agrees with the oracle.  "hit
   after full": an overflow hit in a block after the one whose state
   the full table first refused (the parent of state [max_states] in
   the same search with one more state of budget), so the search had
   stopped reading successors back and found the hit by executing. *)
let test_explore_cases_cover () =
  let rand = Random.State.make [| 20 |] in
  let seen = Hashtbl.create 8 in
  let mark k = Hashtbl.replace seen k () in
  List.iter
    (fun ((( inputs, a, b, acc_bits, floor, sat, trip, dressed ),
           (letters, max_states, depth_limit, stop_on_overflow) ) as case) ->
      let e =
        try explore_both case
        with QCheck2.Test.Test_fail (_, msgs) ->
          Alcotest.failf "%s: %s" (print_explore_case case)
            (String.concat "; " msgs)
      in
      let nl = Array.length letters in
      let blks = blocks ~per:(Stdlib.max 1 (32 / nl)) ~depth_limit e in
      (* [sid]'s block, and its index there *)
      let position sid =
        List.find_map
          (fun blk ->
            Option.map
              (fun i -> (blk, i))
              (List.find_index (fun x -> x = sid) blk))
          blks
      in
      (match e.hit with
      | Some (sid, _, _) -> (
          match position sid with
          | Some (_, i) when i > 0 -> mark "hit mid-block"
          | _ -> ())
      | None -> ());
      (match e.hit with
      | Some (sid, _, _) when e.truncated && List.length e.states = max_states
        ->
          let g =
            section2 ~inputs ~sat ~dressed ~a ~b ~acc_bits ~floor ~trip ()
          in
          let wider =
            Oracle_explore.run g ~letters ~max_states:(max_states + 1)
              ~depth_limit ~stop_on_overflow
          in
          let block_of x =
            List.find_index (fun blk -> List.mem x blk) blks
          in
          if List.length wider.states > max_states then begin
            let refused_by = fst (List.nth wider.parents max_states) in
            match (block_of refused_by, block_of sid) with
            | Some i, Some j when i < j -> mark "hit after full"
            | _ -> ()
          end
      | _ -> ());
      (if List.length e.states = max_states && e.truncated && max_states > 1
       then
         match position (fst (List.nth e.parents (max_states - 1))) with
         | Some (blk, i) when i < List.length blk - 1 ->
             mark "max_states mid-block"
         | _ -> ());
      if depth_limit >= 0 && List.mem depth_limit e.depths then
        mark "depth limit";
      if e.crashed then mark "raised";
      if nl = 1 && e.transitions > 1 then mark "nl = 1";
      if nl > 32 then mark "nl > 32";
      if inputs = 0 then mark "no inputs";
      if dressed then mark "dressed")
    (QCheck2.Gen.generate ~rand ~n:200 gen_explore_case);
  List.iter
    (fun k -> check bool_t k true (Hashtbl.mem seen k))
    [
      "hit mid-block";
      "max_states mid-block";
      "depth limit";
      "raised";
      "nl = 1";
      "nl > 32";
      "no inputs";
      "dressed";
      "hit after full";
    ]

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
      Test_support.Qseed.to_alcotest prop_explore_matches_oracle;
      Alcotest.test_case "explore cases cover the block edges" `Quick
        test_explore_cases_cover;
    ] )
