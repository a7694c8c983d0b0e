(* Unit tests: the parallel sweep engine — env snapshots, candidate
   evaluation, generators, and the pool's scheduling-independence
   contract (jobs=1 and jobs=2 must render byte-identical reports). *)

open Fixrefine

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

(* --- Env.snapshot / restore_into ---------------------------------------- *)

let test_snapshot_roundtrip () =
  let env = Sim.Env.create ~seed:1 () in
  let x = Sim.Signal.create env "x" in
  let y = Sim.Signal.create env "y" in
  Sim.Signal.range x (-2.0) 2.0;
  let base = Sim.Env.snapshot env in
  (* mutate: retype both, change annotations *)
  Sim.Signal.set_dtype x (Fixpt.Dtype.make "T" ~n:8 ~f:6 ());
  Sim.Signal.set_dtype y (Fixpt.Dtype.make "U" ~n:10 ~f:4 ());
  Sim.Signal.clear_range x;
  Sim.Signal.error y 0.01;
  Sim.Env.restore_into base env;
  check bool_t "x untyped again" true (Sim.Signal.dtype x = None);
  check bool_t "y untyped again" true (Sim.Signal.dtype y = None);
  check bool_t "x range restored" true
    (Sim.Signal.explicit_range x = Some (Interval.make (-2.0) 2.0));
  check bool_t "y error annotation dropped" true
    (Sim.Signal.error_injected y = None)

let test_snapshot_shape_mismatch () =
  let env_a = Sim.Env.create () in
  ignore (Sim.Signal.create env_a "a");
  let snap = Sim.Env.snapshot env_a in
  let env_b = Sim.Env.create () in
  ignore (Sim.Signal.create env_b "b");
  check bool_t "restore into different registry raises" true
    (try
       Sim.Env.restore_into snap env_b;
       false
     with Invalid_argument _ -> true)

(* --- Refine.Eval --------------------------------------------------------- *)

let test_eval_unknown_signal_raises () =
  let workload = Sweep.Workload.fir ~n:16 () in
  let inst = workload.Sweep.Workload.make_instance () in
  check bool_t "apply_assigns on unknown signal raises" true
    (try
       Refine.Eval.apply_assigns inst.Sweep.Workload.env
         [ ("nonesuch", Fixpt.Dtype.make "T" ~n:8 ~f:6 ()) ];
       false
     with Invalid_argument _ -> true)

let test_sqnr_db_at_contract () =
  let workload = Sweep.Workload.fir ~n:16 () in
  let inst = workload.Sweep.Workload.make_instance () in
  let env = inst.Sweep.Workload.env in
  (* no samples yet: None, not an exception *)
  check bool_t "no samples -> None" true
    (Refine.Flow.sqnr_db_at env "out" = None);
  check bool_t "unknown signal -> raise" true
    (try
       ignore (Refine.Flow.sqnr_db_at env "nonesuch");
       false
     with Invalid_argument _ -> true)

(* --- generators ---------------------------------------------------------- *)

let specs =
  [
    { Sweep.Candidate.signal = "a"; int_bits = 2 };
    { Sweep.Candidate.signal = "b"; int_bits = 3 };
  ]

let fake_metrics sqnr =
  {
    Refine.Eval.sqnr_db = Some sqnr;
    total_bits = 0;
    overflow_count = 0;
    probe_err_max = 0.0;
    probe_values = None;
    probe_err = None;
    counters = None;
  }

let test_grid_enumeration () =
  let g = Sweep.Generator.grid ~specs ~f_min:3 ~f_max:5 ~seeds:[ 0; 1 ] in
  let wave = Sweep.Generator.next g [] in
  check int_t "3 fs x 2 seeds" 6 (List.length wave);
  (* f-major, seed-minor, dense ids from 0 *)
  List.iteri
    (fun i (c : Sweep.Candidate.t) ->
      check int_t "dense id" i c.Sweep.Candidate.id;
      check int_t "seed order" (i mod 2) c.Sweep.Candidate.stim_seed;
      check bool_t "f order" true
        (c.Sweep.Candidate.uniform_f = Some (3 + (i / 2))))
    wave;
  (* n = int_bits + f for every assign *)
  let c0 = List.hd wave in
  List.iter2
    (fun (s : Sweep.Candidate.spec) (a : Sweep.Candidate.assign) ->
      check int_t "n = int_bits + f" (s.Sweep.Candidate.int_bits + 3)
        a.Sweep.Candidate.n)
    specs c0.Sweep.Candidate.assigns;
  check int_t "single wave" 0
    (List.length (Sweep.Generator.next g (List.map (fun c -> (c, fake_metrics 0.0)) wave)))

(* Drive a generator with a synthetic SQNR model: 6 dB per fractional
   bit, the textbook quantization slope. *)
let drive gen sqnr_of_f =
  let rec loop prev acc =
    match Sweep.Generator.next gen prev with
    | [] -> List.rev acc
    | wave ->
        let results =
          List.map
            (fun (c : Sweep.Candidate.t) ->
              let f = Option.get c.Sweep.Candidate.uniform_f in
              (c, fake_metrics (sqnr_of_f f)))
            wave
        in
        loop results (List.rev_append results acc)
  in
  loop [] []

let test_bisect_converges () =
  let gen =
    Sweep.Generator.bisect ~specs ~f_min:2 ~f_max:12 ~target_db:40.0
      ~seeds:[ 0 ]
  in
  let _ = drive gen (fun f -> 6.0 *. float_of_int f) in
  let concl = Sweep.Generator.conclusion gen in
  (* 6f >= 40 first at f = 7 *)
  check string_t "minimal feasible f" "7" (List.assoc "selected_f" concl);
  check string_t "meets target" "true" (List.assoc "meets_target" concl)

let test_bisect_infeasible () =
  let gen =
    Sweep.Generator.bisect ~specs ~f_min:2 ~f_max:6 ~target_db:1000.0
      ~seeds:[ 0 ]
  in
  let results = drive gen (fun f -> 6.0 *. float_of_int f) in
  let concl = Sweep.Generator.conclusion gen in
  check string_t "pinned at f_max" "6" (List.assoc "selected_f" concl);
  check string_t "reported infeasible" "false"
    (List.assoc "meets_target" concl);
  (* never evaluated outside [f_min, f_max] *)
  List.iter
    (fun ((c : Sweep.Candidate.t), _) ->
      let f = Option.get c.Sweep.Candidate.uniform_f in
      check bool_t "f in range" true (f >= 2 && f <= 6))
    results

let test_pareto_front () =
  let mk id bits sqnr =
    ( { Sweep.Candidate.id; assigns = [ { signal = "a"; n = bits; f = 0 } ];
        stim_seed = 0; uniform_f = Some 0 },
      fake_metrics sqnr )
  in
  (* (8,20) dominates (9,18); (8,20) and (12,30) are both optimal *)
  let front =
    Sweep.Generator.pareto_front [ mk 0 8 20.0; mk 1 9 18.0; mk 2 12 30.0 ]
  in
  check int_t "dominated point dropped" 2 (List.length front);
  check bool_t "survivors" true
    (List.for_all
       (fun ((c : Sweep.Candidate.t), _) ->
         c.Sweep.Candidate.id = 0 || c.Sweep.Candidate.id = 2)
       front)

(* The all-pairs front the sort-and-sweep replaced, kept verbatim as
   the oracle: an entry survives when no other key dominates it. *)
let all_pairs_front results =
  let sqnr_of (m : Refine.Eval.metrics) =
    match m.Refine.Eval.sqnr_db with
    | Some s -> s
    | None -> Float.neg_infinity
  in
  let keyed =
    List.map
      (fun ((c, m) as r) -> (r, (Sweep.Candidate.total_bits c, sqnr_of m)))
      results
  in
  List.filter_map
    (fun (r, k) ->
      if
        List.exists
          (fun (_, k') -> k' <> k && Sweep.Generator.dominates k' k)
          keyed
      then None
      else Some r)
    keyed

(* A wave of (id, total bits, SQNR) points: few bit levels and few
   SQNR values so ties are common, NaN, missing (-inf) and +inf SQNRs,
   and now and then ids drawn from a small range so some repeat. *)
let gen_front_wave =
  let open QCheck2.Gen in
  let sqnr =
    frequency
      [
        (6, map (fun v -> Some (float_of_int v)) (int_range 0 4));
        (1, return (Some Float.nan));
        (1, return None);
        (1, return (Some Float.infinity));
        (1, return (Some Float.neg_infinity));
        (1, return (Some (-0.0)));
      ]
  in
  let* n = frequency [ (1, return 0); (1, return 1); (8, int_range 2 24) ] in
  let* points = list_repeat n (pair (int_range 1 6) sqnr) in
  let* shared_ids = frequency [ (3, return false); (1, return true) ] in
  let* ids =
    if shared_ids then list_repeat n (int_range 0 (max 0 (n / 2)))
    else return (List.init n Fun.id)
  in
  return (List.combine ids points)

let print_front_wave wave =
  String.concat "; "
    (List.map
       (fun (id, (bits, s)) ->
         Printf.sprintf "#%d %d bits %s" id bits
           (match s with Some s -> Printf.sprintf "%g dB" s | None -> "-"))
       wave)

let front_results wave =
  List.map
    (fun (id, (bits, sqnr_db)) ->
      ( {
          Sweep.Candidate.id;
          assigns = [ { signal = "a"; n = bits; f = 0 } ];
          stim_seed = 0;
          uniform_f = Some 0;
        },
        { (fake_metrics 0.0) with Refine.Eval.sqnr_db } ))
    wave

(* The edge classes, each with whether [wave] exhibits it; the coverage
   case below requires the generator to produce every one of them. *)
let front_classes wave =
  let same_sqnr a b =
    match (a, b) with
    | Some x, Some y -> x = y
    | None, None -> true
    | _ -> false
  in
  let key_pairs =
    List.concat_map
      (fun (i, (_, ka)) ->
        List.filter_map
          (fun (j, (_, kb)) -> if i < j then Some (ka, kb) else None)
          (List.mapi (fun j e -> (j, e)) wave))
      (List.mapi (fun i e -> (i, e)) wave)
  in
  let ids = List.map fst wave in
  [
    ("empty", wave = []);
    ("singleton", List.length wave = 1);
    ( "equal bits, different SQNR",
      List.exists
        (fun ((ba, sa), (bb, sb)) -> ba = bb && not (same_sqnr sa sb))
        key_pairs );
    ( "equal SQNR, different bits",
      List.exists
        (fun ((ba, sa), (bb, sb)) -> ba <> bb && same_sqnr sa sb)
        key_pairs );
    ( "duplicate key",
      List.exists
        (fun ((ba, sa), (bb, sb)) ->
          ba = bb && same_sqnr sa sb
          && not (Option.fold ~none:false ~some:Float.is_nan sa))
        key_pairs );
    ( "NaN SQNR",
      List.exists
        (fun (_, (_, s)) -> Option.fold ~none:false ~some:Float.is_nan s)
        wave );
    ("missing SQNR", List.exists (fun (_, (_, s)) -> s = None) wave);
    ( "+inf SQNR",
      List.exists (fun (_, (_, s)) -> s = Some Float.infinity) wave );
    ( "duplicate id",
      List.length (List.sort_uniq compare ids) < List.length ids );
  ]

let qcheck_front_equals_all_pairs =
  QCheck_alcotest.to_alcotest
  @@ QCheck2.Test.make ~name:"sort-and-sweep front = all-pairs front"
       ~count:500 ~print:print_front_wave gen_front_wave (fun wave ->
         let results = front_results wave in
         let expected = all_pairs_front results in
         let front = Sweep.Generator.pareto_front results in
         if
           List.length front <> List.length expected
           || not (List.for_all2 ( == ) front expected)
         then QCheck2.Test.fail_report "front differs from the all-pairs front";
         (* the report marks an entry when its id is on the front *)
         let report =
           Sweep.Report.make ~workload:"w" ~strategy:"s" ~probe:"p"
             ~conclusion:[] results
         in
         let by_id =
           all_pairs_front
             (List.map
                (fun (e : Sweep.Report.entry) -> (e.candidate, e.metrics))
                report.Sweep.Report.entries)
         in
         List.iter
           (fun (e : Sweep.Report.entry) ->
             let want =
               List.exists
                 (fun ((c : Sweep.Candidate.t), _) ->
                   c.Sweep.Candidate.id = e.candidate.Sweep.Candidate.id)
                 by_id
             in
             if e.pareto <> want then
               QCheck2.Test.fail_reportf "report marks id %d %b, oracle %b"
                 e.candidate.Sweep.Candidate.id e.pareto want)
           report.Sweep.Report.entries;
         true)

(* --- renderer oracles ------------------------------------------------------ *)

(* The Printf renderers that [Trace.Json.float_lit]'s direct formatter
   and [Report.to_json]'s one buffer replaced, kept verbatim (module
   paths qualified) as the oracles: the bytes must not change. *)
let oracle_float_lit v =
  if Float.is_nan v then "\"nan\""
  else if v = Float.infinity then "\"inf\""
  else if v = Float.neg_infinity then "\"-inf\""
  else
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let oracle_to_json (t : Sweep.Report.t) =
  let js_float = oracle_float_lit in
  let js_float_opt = function None -> "null" | Some v -> js_float v in
  let js_string = Trace.Json.string_lit in
  let js_running r =
    Printf.sprintf
      "{\"count\": %d, \"mean\": %s, \"min\": %s, \"max\": %s, \"sigma\": %s}"
      (Stats.Running.count r)
      (js_float (Stats.Running.mean r))
      (js_float (Stats.Running.min_value r))
      (js_float (Stats.Running.max_value r))
      (js_float (Stats.Running.stddev r))
  in
  let js_assign (a : Sweep.Candidate.assign) =
    Printf.sprintf "{\"signal\": %s, \"n\": %d, \"f\": %d}"
      (js_string a.Sweep.Candidate.signal) a.Sweep.Candidate.n
      a.Sweep.Candidate.f
  in
  let js_entry (e : Sweep.Report.entry) =
    let c = e.candidate and m = e.metrics in
    Printf.sprintf
      "    {\"id\": %d, \"stim_seed\": %d, \"total_bits\": %d, \"sqnr_db\": \
       %s, \"overflows\": %d, \"err_max\": %s, \"pareto\": %b, \"assigns\": \
       [%s]}"
      c.Sweep.Candidate.id c.Sweep.Candidate.stim_seed
      (Sweep.Candidate.total_bits c)
      (js_float_opt m.Refine.Eval.sqnr_db)
      m.Refine.Eval.overflow_count
      (js_float m.Refine.Eval.probe_err_max)
      e.pareto
      (String.concat ", " (List.map js_assign c.Sweep.Candidate.assigns))
  in
  let entries =
    List.concat
      (List.mapi
         (fun i e -> if i = 0 then [ js_entry e ] else [ ",\n"; js_entry e ])
         t.entries)
  in
  String.concat ""
    ([
       "{\n";
       Printf.sprintf "  \"workload\": %s,\n" (js_string t.workload);
       Printf.sprintf "  \"strategy\": %s,\n" (js_string t.strategy);
       Printf.sprintf "  \"probe\": %s,\n" (js_string t.probe);
       Printf.sprintf "  \"candidates\": %d,\n" (List.length t.entries);
       "  \"entries\": [\n";
     ]
    @ entries
    @ [
        "\n  ],\n";
        Printf.sprintf "  \"failures\": [%s],\n"
          (String.concat ", "
             (List.map
                (fun (f : Sweep.Report.failure) ->
                  Printf.sprintf
                    "{\"id\": %d, \"stim_seed\": %d, \"attempts\": %d, \
                     \"error\": %s}"
                    f.candidate.Sweep.Candidate.id
                    f.candidate.Sweep.Candidate.stim_seed f.attempts
                    (js_string f.error))
                t.failures));
        Printf.sprintf
          "  \"aggregate\": {\"probe_values\": %s, \"consumed\": %s, \
           \"produced\": %s, \"range\": %s, \"overflows\": %d},\n"
          (js_running t.agg_values)
          (js_running (Stats.Err_stats.consumed t.agg_err))
          (js_running (Stats.Err_stats.produced t.agg_err))
          (match Interval.bounds t.agg_range with
          | Some (lo, hi) ->
              Printf.sprintf "[%s, %s]" (js_float lo) (js_float hi)
          | None -> "null")
          t.agg_overflows;
        Printf.sprintf "  \"conclusion\": {%s}\n"
          (String.concat ", "
             (List.map
                (fun (k, v) ->
                  Printf.sprintf "%s: %s" (js_string k) (js_string v))
                t.conclusion));
        "}\n";
      ])

(* Floats from every class the formatter distinguishes: NaN, ±inf, ±0,
   subnormals, integer values (small and past 2^53), short decimals,
   and arbitrary bit patterns. *)
let gen_float =
  let open QCheck2.Gen in
  frequency
    [
      ( 3,
        oneofl
          [
            Float.nan; -.Float.nan; Float.infinity; Float.neg_infinity; 0.0;
            -0.0; 5e-324; -5e-324; 1e-310; Float.min_float; Float.max_float;
            -.Float.max_float; Float.epsilon; 0x1p53; 0x1p53 +. 2.0; 1e15;
            1e16; 1e21; 0.1; 1.0 /. 3.0; 100.0; -7.0;
          ] );
      (2, map Float.of_int (int_range (-100000) 100000));
      ( 2,
        map2
          (fun m e -> Float.of_int m /. (10.0 ** Float.of_int e))
          (int_range (-99999) 99999) (int_range 0 8) );
      (3, map Int64.float_of_bits ui64);
      (2, float);
    ]

(* Names that need every kind of escape, next to plain ones. *)
let gen_name =
  let open QCheck2.Gen in
  string_size ~gen:
    (oneofl
       [
         'a'; 'x'; '['; ']'; '0'; ' '; '"'; '\\'; '\n'; '\r'; '\t'; '\b';
         '\012'; '\001'; '\031'; '\127'; '\195'; '\169';
       ])
    (int_range 0 8)

let gen_running =
  QCheck2.Gen.(
    map
      (fun (n, fs) -> Stats.Running.of_raw (Array.of_list (float_of_int n :: fs)))
      (pair (int_range 0 5000) (list_repeat 5 gen_float)))

let gen_candidate =
  let open QCheck2.Gen in
  let* id = int_range (-3) 5000 in
  let* stim_seed = int_range 0 99 in
  let* assigns =
    list_size (int_range 0 4)
      (map3
         (fun signal n f -> { Sweep.Candidate.signal; n; f })
         gen_name (int_range 1 64) (int_range (-8) 40))
  in
  let* uniform_f = opt (int_range 0 20) in
  return { Sweep.Candidate.id; assigns; stim_seed; uniform_f }

let gen_report =
  let open QCheck2.Gen in
  let gen_entry =
    let* candidate = gen_candidate in
    let* sqnr_db = opt gen_float in
    let* overflow_count = int_range 0 100000 in
    let* probe_err_max = gen_float in
    let* pareto = bool in
    return
      {
        Sweep.Report.candidate;
        metrics =
          {
            (fake_metrics 0.0) with
            Refine.Eval.sqnr_db;
            overflow_count;
            probe_err_max;
          };
        pareto;
      }
  in
  let gen_failure =
    map3
      (fun candidate error attempts ->
        { Sweep.Report.candidate; error; attempts })
      gen_candidate gen_name (int_range 1 5)
  in
  let* workload = gen_name in
  let* strategy = gen_name in
  let* probe = gen_name in
  let* entries =
    frequency
      [ (1, return []); (6, list_size (int_range 1 12) gen_entry) ]
  in
  let* conclusion = list_size (int_range 0 3) (pair gen_name gen_name) in
  let* agg_values = gen_running in
  let* consumed = gen_running in
  let* produced = gen_running in
  let* agg_range =
    frequency
      [
        (1, return Interval.empty);
        ( 3,
          map2
            (fun a b ->
              let a = if Float.is_nan a then 0.0 else a
              and b = if Float.is_nan b then 0.0 else b in
              Interval.make (Float.min a b) (Float.max a b))
            gen_float gen_float );
      ]
  in
  let* agg_overflows = int_range 0 1000000 in
  let* failures = list_size (int_range 0 3) gen_failure in
  return
    {
      Sweep.Report.workload;
      strategy;
      probe;
      entries;
      conclusion;
      agg_values;
      agg_err =
        Stats.Err_stats.of_raw
          (Array.append (Stats.Running.raw consumed) (Stats.Running.raw produced));
      agg_range;
      agg_overflows;
      agg_counters = None;
      failures;
    }

let qcheck_float_lit_oracle =
  QCheck_alcotest.to_alcotest
  @@ QCheck2.Test.make ~name:"float_lit = Printf oracle" ~count:2000
       ~print:(Printf.sprintf "%h") gen_float (fun v ->
         String.equal (Trace.Json.float_lit v) (oracle_float_lit v))

let qcheck_to_json_oracle =
  QCheck_alcotest.to_alcotest
  @@ QCheck2.Test.make ~name:"to_json = Printf oracle" ~count:300
       ~print:oracle_to_json gen_report (fun r ->
         String.equal (Sweep.Report.to_json r) (oracle_to_json r))

let test_front_wave_coverage () =
  let rand = Random.State.make [| 25 |] in
  let waves = QCheck2.Gen.generate ~rand ~n:500 gen_front_wave in
  List.iter
    (fun (name, _) ->
      check bool_t name true
        (List.exists (fun w -> List.assoc name (front_classes w)) waves))
    (front_classes [])

(* --- the pool's determinism contract ------------------------------------- *)

let run_sweep ~jobs =
  let workload = Sweep.Workload.fir ~n:64 () in
  let generator =
    Sweep.Generator.grid ~specs:workload.Sweep.Workload.specs ~f_min:4
      ~f_max:6 ~seeds:[ 0; 1 ]
  in
  Sweep.Pool.run ~jobs ~workload ~generator ()

let test_pool_jobs_deterministic () =
  let r1 = run_sweep ~jobs:1 and r2 = run_sweep ~jobs:2 in
  check string_t "jobs=1 and jobs=2 byte-identical"
    (Sweep.Report.to_json r1) (Sweep.Report.to_json r2)

let test_pool_budget () =
  let workload = Sweep.Workload.fir ~n:64 () in
  let generator =
    Sweep.Generator.grid ~specs:workload.Sweep.Workload.specs ~f_min:4
      ~f_max:8 ~seeds:[ 0; 1 ]
  in
  let r = Sweep.Pool.run ~budget:3 ~workload ~generator () in
  check int_t "budget truncates" 3 (List.length r.Sweep.Report.entries)

let test_pool_sqnr_monotone () =
  (* more fractional bits, better SQNR — on the real workload *)
  let r = run_sweep ~jobs:1 in
  let by_f f =
    List.filter_map
      (fun (e : Sweep.Report.entry) ->
        if e.Sweep.Report.candidate.Sweep.Candidate.uniform_f = Some f then
          e.Sweep.Report.metrics.Refine.Eval.sqnr_db
        else None)
      r.Sweep.Report.entries
  in
  let worst f = List.fold_left Float.min Float.infinity (by_f f) in
  check bool_t "sqnr grows with f" true (worst 6 > worst 5 && worst 5 > worst 4)

(* --- checkpoint / resume -------------------------------------------------- *)

let scratch =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "fxsweep-test-%d-%d" (Unix.getpid ()) !ctr)
    in
    (try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

(* Count real evaluations via the one per-candidate call both the
   interpreter and the compiled paths make. *)
let counting_workload counter (w : Sweep.Workload.t) =
  {
    w with
    Sweep.Workload.make_instance =
      (fun () ->
        let inst = w.Sweep.Workload.make_instance () in
        {
          inst with
          Sweep.Workload.set_seed =
            (fun s ->
              incr counter;
              inst.Sweep.Workload.set_seed s);
        });
  }

let ckpt_key =
  Sweep.Checkpoint.sweep_key ~workload:"fir-64" ~strategy:"bisect"
    ~context:"fxeval/test"
    [ ("f_min", "2"); ("f_max", "8"); ("seeds", "2") ]

(* A multi-wave bisect sweep (one 2-candidate wave per midpoint), with
   an optional checkpoint over [dir] and an optional evaluation
   counter. *)
let ckpt_sweep ?counter ?checkpoint () =
  let workload = Sweep.Workload.fir ~n:64 () in
  let workload =
    match counter with
    | None -> workload
    | Some c -> counting_workload c workload
  in
  let generator =
    Sweep.Generator.bisect ~specs:workload.Sweep.Workload.specs ~f_min:2
      ~f_max:8 ~target_db:40.0 ~seeds:[ 0; 1 ]
  in
  Sweep.Report.to_json
    (Sweep.Pool.run ~jobs:1 ?checkpoint ~workload ~generator ())

let test_checkpoint_resume_identical () =
  let dir = scratch () in
  let reference = ckpt_sweep () in
  (* fresh checkpointed run: journals every wave, changes no bytes *)
  let cp1 = Sweep.Checkpoint.create ~dir ~key:ckpt_key () in
  check string_t "checkpointing is byte-transparent" reference
    (ckpt_sweep ~checkpoint:cp1 ());
  check bool_t "multiple waves journaled" true
    (Sweep.Checkpoint.waves cp1 >= 2);
  (* resume: every wave replays, zero re-evaluations, same bytes *)
  let n = ref 0 in
  let cp2 = Sweep.Checkpoint.create ~resume:true ~dir ~key:ckpt_key () in
  check string_t "resumed report byte-identical" reference
    (ckpt_sweep ~counter:n ~checkpoint:cp2 ());
  check int_t "resume re-evaluated nothing" 0 !n;
  let waves, candidates = Sweep.Checkpoint.replayed cp2 in
  check int_t "every wave replayed" (Sweep.Checkpoint.waves cp1) waves;
  check bool_t "candidates accounted" true (candidates = 2 * waves)

let wave_files cp =
  Sys.readdir (Sweep.Checkpoint.dir cp)
  |> Array.to_list
  |> List.filter (fun n -> Filename.check_suffix n ".wv")
  |> List.sort compare

let test_checkpoint_partial_resume () =
  let dir = scratch () in
  let reference = ckpt_sweep () in
  let cp1 = Sweep.Checkpoint.create ~dir ~key:ckpt_key () in
  ignore (ckpt_sweep ~checkpoint:cp1 ());
  (* lose the last journaled wave — as a kill between waves would *)
  (match List.rev (wave_files cp1) with
  | last :: _ ->
      Sys.remove (Filename.concat (Sweep.Checkpoint.dir cp1) last)
  | [] -> Alcotest.fail "no wave files journaled");
  let n = ref 0 in
  let cp2 = Sweep.Checkpoint.create ~resume:true ~dir ~key:ckpt_key () in
  check string_t "partial resume byte-identical" reference
    (ckpt_sweep ~counter:n ~checkpoint:cp2 ());
  check int_t "only the missing wave re-evaluated" 2 !n

let test_checkpoint_corrupt_wave_reevaluated () =
  let dir = scratch () in
  let reference = ckpt_sweep () in
  let cp1 = Sweep.Checkpoint.create ~dir ~key:ckpt_key () in
  ignore (ckpt_sweep ~checkpoint:cp1 ());
  (* flip one byte in the first wave record: strict decoding must treat
     it as not-journaled, never replay damaged metrics *)
  (match wave_files cp1 with
  | first :: _ ->
      let path = Filename.concat (Sweep.Checkpoint.dir cp1) first in
      let raw =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let b = Bytes.of_string raw in
      let off = Bytes.length b / 2 in
      Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x04));
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc
  | [] -> Alcotest.fail "no wave files journaled");
  let n = ref 0 in
  let cp2 = Sweep.Checkpoint.create ~resume:true ~dir ~key:ckpt_key () in
  check string_t "corrupt wave re-evaluated, bytes identical" reference
    (ckpt_sweep ~counter:n ~checkpoint:cp2 ());
  check bool_t "damage cost time, not correctness" true (!n >= 2)

(* A journal copied file by file, so each fuzz case damages its own. *)
let copy_journal ~src ~dir =
  let sub = Filename.concat dir ckpt_key in
  Store.Durable.mkdir_p sub;
  List.iter
    (fun f ->
      Store.Durable.write_atomic (Filename.concat sub f)
        (Store.Durable.read_file (Filename.concat src f)))
    (Store.Durable.readdir_sorted src);
  sub

(* Fuzz the wave journal like the cache's torn-entry fuzzer: truncate,
   flip one bit of, or append to one wave record of a journaled sweep.
   Exactly that wave is re-evaluated — every other one still replays —
   and the resumed report is byte-identical to the undisturbed one. *)
let prop_torn_wave_reevaluated =
  let root = scratch () in
  let journal =
    lazy
      (let cp =
         Sweep.Checkpoint.create
           ~dir:(Filename.concat root "src")
           ~key:ckpt_key ()
       in
       let json = ckpt_sweep ~checkpoint:cp () in
       (json, Sweep.Checkpoint.dir cp, wave_files cp))
  in
  let ctr = ref 0 in
  QCheck2.Test.make
    ~name:"damaged wave records re-evaluate, reports unchanged" ~count:200
    ~print:(fun (pick, d) ->
      Printf.sprintf "wave %d, %s" pick (Test_support.Damage.print d))
    QCheck2.Gen.(pair nat Test_support.Damage.gen)
    (fun (pick, d) ->
      let reference, src, files = Lazy.force journal in
      incr ctr;
      let dir = Filename.concat root (string_of_int !ctr) in
      let sub = copy_journal ~src ~dir in
      let victim = List.nth files (pick mod List.length files) in
      ignore (Test_support.Damage.file d (Filename.concat sub victim));
      let n = ref 0 in
      let cp = Sweep.Checkpoint.create ~resume:true ~dir ~key:ckpt_key () in
      let json = ckpt_sweep ~counter:n ~checkpoint:cp () in
      String.equal json reference
      && !n = 2
      && fst (Sweep.Checkpoint.replayed cp) = List.length files - 1)

(* One flipped bit in a journaled SQNR ([0x1.b4...] -> [0x1.b5...]) of
   the first wave of a fir grid sweep: the wave is re-evaluated, never
   replayed with the damaged value. *)
(* Retiring deletes exactly what the journal wrote (its waves and a
   stray temp file), then the directory; a second retire, a key never
   journaled and another key's journal are untouched. *)
let test_checkpoint_retire () =
  let dir = scratch () in
  let reference = ckpt_sweep () in
  let cp = Sweep.Checkpoint.create ~dir ~key:ckpt_key () in
  ignore (ckpt_sweep ~checkpoint:cp ());
  let other = Sweep.Checkpoint.create ~dir ~key:"other" () in
  ignore (ckpt_sweep ~checkpoint:other ());
  let sub = Sweep.Checkpoint.dir cp in
  Out_channel.with_open_bin
    (Filename.concat sub "wave-000009.wv.1-0-0.tmp")
    (fun oc -> output_string oc "half");
  Sweep.Checkpoint.retire ~dir ~key:ckpt_key;
  check bool_t "key directory gone" false (Sys.file_exists sub);
  Sweep.Checkpoint.retire ~dir ~key:ckpt_key;
  Sweep.Checkpoint.retire ~dir ~key:"never-journaled";
  check (Alcotest.list string_t) "other journal kept"
    (List.init (Sweep.Checkpoint.waves other) (fun i ->
         Printf.sprintf "wave-%06d.wv" (i + 1)))
    (wave_files other);
  (* a directory holding a file the journal did not write stays, and
     so does that file *)
  let cp = Sweep.Checkpoint.create ~dir ~key:ckpt_key () in
  ignore (ckpt_sweep ~checkpoint:cp ());
  Out_channel.with_open_bin (Filename.concat sub "notes.txt") (fun oc ->
      output_string oc "mine");
  Sweep.Checkpoint.retire ~dir ~key:ckpt_key;
  check (Alcotest.list string_t) "foreign file kept" [ "notes.txt" ]
    (Array.to_list (Sys.readdir sub));
  (* a fresh journal under the retired key starts from nothing *)
  let n = ref 0 in
  let cp = Sweep.Checkpoint.create ~resume:true ~dir ~key:ckpt_key () in
  check string_t "report after retire" reference
    (ckpt_sweep ~counter:n ~checkpoint:cp ());
  check int_t "nothing replayed after retire" 0
    (fst (Sweep.Checkpoint.replayed cp));
  check bool_t "unsafe key rejected" true
    (try
       Sweep.Checkpoint.retire ~dir ~key:"../x";
       false
     with Invalid_argument _ -> true)

let test_checkpoint_flipped_sqnr () =
  let workload = Option.get (Sweep.Workload.find "fir") in
  let sweep checkpoint =
    let generator =
      Sweep.Generator.grid ~specs:workload.Sweep.Workload.specs ~f_min:6
        ~f_max:8 ~seeds:[ 0; 1 ]
    in
    Sweep.Report.to_json
      (Sweep.Pool.run ~jobs:1 ~checkpoint ~workload ~generator ())
  in
  let dir = scratch () in
  let reference = sweep (Sweep.Checkpoint.create ~dir ~key:ckpt_key ()) in
  let path =
    Filename.concat (Filename.concat dir ckpt_key) "wave-000001.wv"
  in
  let raw = Bytes.of_string (Store.Durable.read_file path) in
  let rec find i =
    if i + 6 > Bytes.length raw then Alcotest.fail "no 0x1.b4 SQNR journaled"
    else if Bytes.sub_string raw i 6 = "0x1.b4" then i
    else find (i + 1)
  in
  Bytes.set raw (find 0 + 5) '5';
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc raw);
  let cp = Sweep.Checkpoint.create ~resume:true ~dir ~key:ckpt_key () in
  check string_t "report unchanged" reference (sweep cp);
  check int_t "damaged wave not replayed" 0 (fst (Sweep.Checkpoint.replayed cp))

let test_checkpoint_rejects_counters () =
  let dir = scratch () in
  let workload = Sweep.Workload.fir ~n:64 () in
  let generator =
    Sweep.Generator.grid ~specs:workload.Sweep.Workload.specs ~f_min:4
      ~f_max:5 ~seeds:[ 0 ]
  in
  let cp = Sweep.Checkpoint.create ~dir ~key:ckpt_key () in
  check bool_t "counter sweeps cannot checkpoint" true
    (try
       ignore
         (Sweep.Pool.run ~counters:true ~checkpoint:cp ~workload ~generator ());
       false
     with Invalid_argument _ -> true)

(* Two identical jobs journaling the same wave at once (two daemon
   connections on one sweep key): each writer owns its temp file, so no
   write fails and the surviving record is whole. *)
let test_checkpoint_concurrent_writers () =
  let dir = scratch () in
  let outcome =
    [
      ( {
          Sweep.Candidate.id = 0;
          assigns = [ { Sweep.Candidate.signal = "x"; n = 8; f = 6 } ];
          stim_seed = 0;
          uniform_f = Some 6;
        },
        Ok
          {
            Refine.Eval.sqnr_db = Some 41.5;
            total_bits = 8;
            overflow_count = 0;
            probe_err_max = 0.25;
            probe_values = None;
            probe_err = None;
            counters = None;
          } );
    ]
  in
  let writer () =
    let cp = Sweep.Checkpoint.create ~resume:true ~dir ~key:ckpt_key () in
    Domain.spawn (fun () ->
        let failures = ref 0 in
        for _ = 1 to 300 do
          try Sweep.Checkpoint.record cp ~wave:1 outcome
          with Sys_error _ | Unix.Unix_error _ -> incr failures
        done;
        !failures)
  in
  let a = writer () and b = writer () in
  let failures = Domain.join a + Domain.join b in
  check int_t "no failed writes" 0 failures;
  let cp = Sweep.Checkpoint.create ~resume:true ~dir ~key:ckpt_key () in
  check bool_t "final record parses" true
    (Sweep.Checkpoint.lookup cp ~wave:1 (List.map fst outcome) <> None)

(* A record replays only for the candidate list it was recorded from:
   a change to any field of any candidate, or to their number, is a
   clean miss. *)
let test_checkpoint_candidate_mismatch () =
  let dir = scratch () in
  let a = { Sweep.Candidate.signal = "acc y"; n = 8; f = 6 } in
  let c =
    { Sweep.Candidate.id = 0; assigns = [ a ]; stim_seed = 0; uniform_f = Some 6 }
  in
  let m =
    {
      Refine.Eval.sqnr_db = Some 41.5;
      total_bits = 8;
      overflow_count = 0;
      probe_err_max = 0.25;
      probe_values = None;
      probe_err = None;
      counters = None;
    }
  in
  Sweep.Checkpoint.record (Sweep.Checkpoint.create ~dir ~key:ckpt_key ()) ~wave:1
    [ (c, Ok m) ];
  let cp = Sweep.Checkpoint.create ~resume:true ~dir ~key:ckpt_key () in
  let replays cs = Sweep.Checkpoint.lookup cp ~wave:1 cs <> None in
  check bool_t "the recorded list replays" true (replays [ c ]);
  (* two lists whose signal names, written out unescaped, would render
     the same lines *)
  let named ss =
    [ { c with assigns = List.map (fun signal -> { a with signal }) ss } ]
  in
  Sweep.Checkpoint.record cp ~wave:2
    (List.map (fun c -> (c, Ok m)) (named [ "x\na 8 6 y"; "z" ]));
  check bool_t "escaped names" false
    (Sweep.Checkpoint.lookup cp ~wave:2 (named [ "x"; "y\na 8 6 z" ]) <> None);
  List.iter
    (fun (what, cs) -> check bool_t what false (replays cs))
    [
      ("another id", [ { c with id = 1 } ]);
      ("another seed", [ { c with stim_seed = 1 } ]);
      ("no uniform f", [ { c with uniform_f = None } ]);
      ("another width", [ { c with assigns = [ { a with n = 9 } ] } ]);
      ("another signal", [ { c with assigns = [ { a with signal = "acc" } ] } ]);
      ( "the name split in two",
        [
          { c with assigns = [ { a with signal = "acc" }; { a with signal = "y" } ] };
        ] );
      ("one more candidate", [ c; c ]);
      ("no candidate", []);
    ]

(* --- lane blocks ---------------------------------------------------------- *)

let bits = Int64.bits_of_float

(* The fir stimulus is read per draw from each lane's seed stream; every
   lane of the row must equal the buffer the design's own reset/run
   protocol draws for its seed, in any access order, and the row filler
   writes its own row only. *)
let test_fir_stimulus_stream () =
  let n = 200 in
  let w = Sweep.Workload.fir ~n () in
  let ce =
    Option.get (w.Sweep.Workload.make_instance ()).Sweep.Workload.compiled
  in
  let rs = Random.State.make [| 17 |] in
  let seeds = [| 0; 1; 7; 999_983 |] in
  let b = Array.length seeds and off = 3 in
  let bufs =
    Array.map
      (fun seed ->
        let rng = Stats.Rng.create ~seed:12 in
        Stats.Rng.reseed rng ~seed:(12 + (7919 * seed));
        Array.init n (fun _ -> Stats.Rng.uniform_sym rng 1.0))
      seeds
  in
  let x = ce.Refine.Eval.stimulus ~seeds "x_in" in
  let row = Array.make (off + b + 2) Float.nan in
  let forward = List.init n Fun.id in
  let random = List.init (2 * n) (fun _ -> Random.State.int rs n) in
  List.iter
    (fun step ->
      x step row off;
      Array.iteri
        (fun l seed ->
          let v = row.(off + l) in
          if bits v <> bits bufs.(l).(step) then
            Alcotest.failf "seed %d step %d: %h <> %h" seed step v
              bufs.(l).(step))
        seeds)
    (forward @ List.rev forward @ random);
  ce.Refine.Eval.stimulus ~seeds "nonesuch" 3 row off;
  check bool_t "other inputs are silent" true
    (Array.for_all (fun v -> v = 0.0) (Array.sub row off b));
  check bool_t "nothing outside the row" true
    (Array.for_all Float.is_nan (Array.sub row 0 off)
    && Array.for_all Float.is_nan (Array.sub row (off + b) 2))

let lane_of (inst : Sweep.Workload.instance) (c : Sweep.Candidate.t) =
  {
    Refine.Eval.assigns = Sweep.Candidate.to_dtypes c;
    seed = c.Sweep.Candidate.stim_seed;
    prepare =
      (fun () ->
        Sim.Env.restore_into inst.Sweep.Workload.baseline
          inst.Sweep.Workload.env;
        inst.Sweep.Workload.set_seed c.Sweep.Candidate.stim_seed);
  }

let encode_result = function
  | Ok m -> Serve.Codec.encode m
  | Error e -> "error: " ^ Printexc.to_string e

(* A wave of non-uniform candidates (a random [f] per signal, and now
   and then only a subset of the signals), random seeds, and random
   cut points splitting it into worker shares. *)
let gen_wave =
  let open QCheck2.Gen in
  let specs = (Sweep.Workload.fir ()).Sweep.Workload.specs in
  let gen_cand =
    let* subset = frequency [ (5, return false); (1, return true) ] in
    let* fs = list_repeat (List.length specs) (int_range 1 12) in
    let* keep = list_repeat (List.length specs) bool in
    let* seed = int_range 0 999_999 in
    let assigns =
      List.concat
        (List.map2
           (fun ((sp : Sweep.Candidate.spec), f) k ->
             if subset && not k then []
             else
               [
                 {
                   Sweep.Candidate.signal = sp.Sweep.Candidate.signal;
                   n = sp.Sweep.Candidate.int_bits + f;
                   f;
                 };
               ])
           (List.combine specs fs) keep)
    in
    return (assigns, seed)
  in
  let* cands = list_size (int_range 1 10) gen_cand in
  let* cuts = list_size (int_range 0 3) (int_range 0 10) in
  let* probe_i = int_range 0 9 in
  return (cands, cuts, probe_i)

let print_wave (cands, cuts, _) =
  Printf.sprintf "%d candidates, cuts [%s]: %s" (List.length cands)
    (String.concat "; " (List.map string_of_int cuts))
    (String.concat " | "
       (List.map
          (fun (assigns, seed) ->
            Printf.sprintf "seed %d %s" seed
              (String.concat ","
                 (List.map
                    (fun (a : Sweep.Candidate.assign) ->
                      Printf.sprintf "%s<%d,%d>" a.Sweep.Candidate.signal
                        a.Sweep.Candidate.n a.Sweep.Candidate.f)
                    assigns)))
          cands))

let qcheck_lanes_equal_one_lane =
  QCheck_alcotest.to_alcotest
  @@ QCheck2.Test.make ~name:"lane block = one-lane evaluations" ~count:25
       ~print:print_wave gen_wave
       (fun (cands, cuts, probe_i) ->
         let w = Sweep.Workload.fir ~n:48 () in
         let probe = w.Sweep.Workload.probe in
         let cands =
           Array.of_list
             (List.mapi
                (fun id (assigns, stim_seed) ->
                  {
                    Sweep.Candidate.id;
                    assigns;
                    stim_seed;
                    uniform_f = None;
                  })
                cands)
         in
         let n = Array.length cands in
         let cuts =
           List.sort_uniq compare
             (0 :: n :: List.filter (fun c -> c < n) cuts)
         in
         let rec shares = function
           | a :: (b :: _ as rest) -> (a, b) :: shares rest
           | _ -> []
         in
         (* each share a lane block on its own instance, like a worker *)
         let laned =
           Array.concat
             (List.map
                (fun (lo, hi) ->
                  let inst = w.Sweep.Workload.make_instance () in
                  Refine.Eval.evaluate_lanes ~probe
                    (Option.get inst.Sweep.Workload.compiled)
                    inst.Sweep.Workload.design ~count:(hi - lo)
                    ~lane:(fun i -> lane_of inst cands.(lo + i)))
                (shares cuts))
         in
         let inst = w.Sweep.Workload.make_instance () in
         let ce = Option.get inst.Sweep.Workload.compiled in
         Array.iteri
           (fun i c ->
             let ln = lane_of inst c in
             ln.Refine.Eval.prepare ();
             let one =
               match
                 Refine.Eval.evaluate_compiled ~assigns:ln.Refine.Eval.assigns
                   ~probe ~seed:ln.Refine.Eval.seed ce
                   inst.Sweep.Workload.design
               with
               | m -> Ok m
               | exception e -> Error e
             in
             if encode_result laned.(i) <> encode_result one then
               QCheck2.Test.fail_reportf "candidate %d: lane block differs" i)
           cands;
         (* and a sample against the clock-true interpreter *)
         let i = probe_i mod n in
         let ln = lane_of inst cands.(i) in
         ln.Refine.Eval.prepare ();
         let interp =
           Refine.Eval.evaluate ~assigns:ln.Refine.Eval.assigns ~probe
             inst.Sweep.Workload.design
         in
         if encode_result laned.(i) <> Serve.Codec.encode interp then
           QCheck2.Test.fail_reportf "candidate %d differs from the interpreter"
             i;
         true)

(* One wave, then done. *)
let one_wave cands =
  let fed = ref false in
  {
    Sweep.Generator.name = "fixed";
    next =
      (fun _ ->
        if !fed then []
        else begin
          fed := true;
          cands
        end);
    conclusion = (fun () -> []);
  }

(* A candidate naming an unknown signal is quarantined on its own; the
   rest of its block evaluate exactly as without it. *)
let test_lane_quarantine_alone () =
  let w = Sweep.Workload.fir ~n:48 () in
  let good =
    List.mapi
      (fun i f ->
        Sweep.Candidate.of_uniform ~id:i ~specs:w.Sweep.Workload.specs ~f
          ~stim_seed:(100 + i))
      [ 3; 5; 7; 9 ]
  in
  let bad id =
    let c =
      Sweep.Candidate.of_uniform ~id ~specs:w.Sweep.Workload.specs ~f:6
        ~stim_seed:1
    in
    {
      c with
      Sweep.Candidate.assigns =
        { Sweep.Candidate.signal = "nonesuch"; n = 8; f = 6 }
        :: c.Sweep.Candidate.assigns;
    }
  in
  let metrics (r : Sweep.Report.t) =
    List.map
      (fun (e : Sweep.Report.entry) ->
        ( e.Sweep.Report.candidate.Sweep.Candidate.stim_seed,
          Serve.Codec.encode e.Sweep.Report.metrics ))
      r.Sweep.Report.entries
  in
  let reference =
    metrics (Sweep.Pool.run ~workload:w ~generator:(one_wave good) ())
  in
  List.iter
    (fun pos ->
      let renum = List.mapi (fun id c -> { c with Sweep.Candidate.id }) in
      let wave =
        renum
          (List.filteri (fun i _ -> i < pos) good
          @ [ bad 0 ]
          @ List.filteri (fun i _ -> i >= pos) good)
      in
      List.iter
        (fun jobs ->
          let r =
            Sweep.Pool.run ~jobs ~workload:w ~generator:(one_wave wave) ()
          in
          (match r.Sweep.Report.failures with
          | [ f ] ->
              check int_t "the bad candidate" pos
                f.Sweep.Report.candidate.Sweep.Candidate.id;
              check int_t "attempts" 2 f.Sweep.Report.attempts
          | fs -> Alcotest.failf "%d failures, expected 1" (List.length fs));
          check bool_t
            (Printf.sprintf "block-mates unchanged (bad at %d, jobs %d)" pos
               jobs)
            true
            (metrics r = reference))
        [ 1; 2 ])
    [ 0; 2; 4 ]

(* Spliced keys against the reference.  A graph of one input, cast and
   register per signal, over a signed-zero constant; a signal's input
   range is either annotated (possibly open or signed zero, and fixed)
   or its type's range (a type site).  Each lane's key source, spliced
   into the first lane's template, must equal {!Refine.Eval.key_source}
   over the lane's own graph, byte for byte, and its key
   {!Refine.Eval.cache_key}.  Signal and dtype names, probe and
   context are drawn partly from strings that need escapes. *)
type key_case = {
  k_signals : (string * (float * float) option) list;
  k_lanes : (Fixpt.Dtype.t array * int) list;
  k_zero : float;
  k_probe : string option;
  k_context : string;
  k_cycles : int;
}

let escaped_names =
  [
    "x"; "q\"uote"; "back\\slash"; "new\nline"; "t\tab"; "\xc3\xbc"; "d[0]"; "";
  ]

let key_graph kc dts =
  let g = Sfg.Graph.create () in
  let sites = Hashtbl.create 8 in
  let acc = ref (Sfg.Graph.const g ~name:"zero" kc.k_zero) in
  List.iteri
    (fun j (name, range) ->
      let lo, hi =
        match range with Some r -> r | None -> Fixpt.Dtype.range dts.(j)
      in
      let i = Sfg.Graph.input g (name ^ "_in") ~lo ~hi in
      if range = None then Hashtbl.replace sites i j;
      let q = Sfg.Graph.quantize g ~name:(name ^ "_q") dts.(j) i in
      Hashtbl.replace sites q j;
      let d = Sfg.Graph.delay_of g ~init:kc.k_zero name q in
      acc := Sfg.Graph.add g !acc d)
    kc.k_signals;
  Sfg.Graph.mark_output g "out\"" !acc;
  (g, sites)

let gen_key_case =
  let open QCheck2.Gen in
  let gen_bound =
    oneofl [ 0.0; -0.0; 1.5; -2.25; Float.infinity; Float.neg_infinity ]
  in
  let gen_range =
    opt
      (let* a = gen_bound and* b = gen_bound in
       return (if b < a then (b, a) else (a, b)))
  in
  let gen_dtype =
    let* name = oneofl [ "T"; "q\"t"; "b\\s"; "" ] in
    let* n = int_range 1 24 in
    let* f = int_range (-4) 24 in
    let* sign = oneofl Fixpt.Sign_mode.[ Tc; Us ] in
    let* overflow = oneofl Fixpt.Overflow_mode.[ Wrap; Saturate; Error ] in
    let* round = oneofl Fixpt.Round_mode.[ Round; Floor ] in
    return (Fixpt.Dtype.make name ~n ~f ~sign ~overflow ~round ())
  in
  let* names = shuffle_l escaped_names in
  let* k = int_range 1 4 in
  let* ranges = list_repeat k gen_range in
  let k_signals = List.combine (List.filteri (fun i _ -> i < k) names) ranges in
  let gen_dts = array_repeat k gen_dtype in
  (* a lane typed like the one before (seeds of one [f]) now and then *)
  let* first = gen_dts in
  let* rest = list_size (int_range 0 6) (pair (opt gen_dts) int) in
  let* seed0 = int in
  let _, lanes =
    List.fold_left
      (fun (prev, acc) (dts, seed) ->
        let dts = Option.value dts ~default:prev in
        (dts, (dts, seed) :: acc))
      (first, [ (first, seed0) ])
      rest
  in
  let* k_zero = oneofl [ 0.0; -0.0 ] in
  let* k_probe = opt (oneofl escaped_names) in
  let* k_context = oneofl [ "fxeval/1"; "ctx \"q\" \\ \n" ] in
  let* k_cycles = int_range 0 4096 in
  return
    {
      k_signals;
      k_lanes = List.rev lanes;
      k_zero;
      k_probe;
      k_context;
      k_cycles;
    }

let print_key_case kc =
  Printf.sprintf "signals [%s], zero %h, lanes [%s]"
    (String.concat "; "
       (List.map
          (fun (s, r) ->
            match r with
            | Some (lo, hi) -> Printf.sprintf "%S %h..%h" s lo hi
            | None -> Printf.sprintf "%S typed" s)
          kc.k_signals))
    kc.k_zero
    (String.concat "; "
       (List.map
          (fun (dts, seed) ->
            Printf.sprintf "seed %d %s" seed
              (String.concat ","
                 (Array.to_list (Array.map Fixpt.Dtype.to_string dts))))
          kc.k_lanes))

let qcheck_spliced_keys =
  QCheck_alcotest.to_alcotest
  @@ QCheck2.Test.make ~name:"spliced key source = cache_key source"
       ~count:300 ~print:print_key_case gen_key_case (fun kc ->
         let assigns dts =
           List.mapi (fun j (s, _) -> (s, dts.(j))) kc.k_signals
         in
         let src, _ = List.hd kc.k_lanes in
         let g, sites = key_graph kc src in
         let ks =
           Refine.Eval.lane_keys g ~sites ~assigns:(assigns src)
             ~probe:kc.k_probe ~cycles:kc.k_cycles ~context:kc.k_context
         in
         List.iteri
           (fun l (dts, seed) ->
             let assigns = assigns dts in
             let design = Sfg.Graph.canonical_json (fst (key_graph kc dts)) in
             let reference =
               Refine.Eval.key_source ~design ~assigns ~probe:kc.k_probe ~seed
                 ~cycles:kc.k_cycles ~context:kc.k_context
             in
             (* odd lanes digest first, so both calls meet a fresh
                rendering as well as a kept one *)
             let key () = Refine.Eval.splice_key ks ~assigns ~seed in
             let source () = Refine.Eval.splice_source ks ~assigns ~seed in
             let k, spliced =
               if l mod 2 = 1 then
                 let k = key () in
                 (k, source ())
               else
                 let s = source () in
                 (key (), s)
             in
             if not (String.equal spliced reference) then
               QCheck2.Test.fail_reportf "lane %d source:\n%s\nreference:\n%s"
                 l spliced reference;
             if
               not
                 (String.equal k
                    (Refine.Eval.cache_key ~design ~assigns ~probe:kc.k_probe
                       ~seed ~cycles:kc.k_cycles ~context:kc.k_context))
             then QCheck2.Test.fail_reportf "lane %d key differs" l)
           kc.k_lanes;
         true)

(* A fir candidate that also types the coefficient [c[0]]: the
   extracted graph then holds a constant named after an assigned
   signal, cast under that candidate's type, so no other lane can
   share its graph.  The source lane is still keyed from its own
   graph, so one-candidate blocks hit a warm cache. *)
let test_lane_keys_const_fallback () =
  let w = Sweep.Workload.fir ~n:64 () in
  let inst = w.Sweep.Workload.make_instance () in
  let cand id f stim_seed =
    let c =
      Sweep.Candidate.of_uniform ~id ~specs:w.Sweep.Workload.specs ~f
        ~stim_seed
    in
    {
      c with
      Sweep.Candidate.assigns =
        c.Sweep.Candidate.assigns
        @ [ { Sweep.Candidate.signal = "c[0]"; n = 1 + f; f } ];
    }
  in
  let cands = [| cand 0 4 1; cand 1 4 2; cand 2 7 1; cand 3 7 2 |] in
  let store = Hashtbl.create 16 in
  let lookups = ref 0 and hits = ref 0 in
  let cache =
    {
      Refine.Eval.context = "fxeval/test";
      lookup =
        (fun k ->
          incr lookups;
          let r = Hashtbl.find_opt store k in
          if Option.is_some r then incr hits;
          r);
      insert = (fun k m -> Hashtbl.replace store k m);
    }
  in
  let block count lane =
    lookups := 0;
    hits := 0;
    let r =
      Refine.Eval.evaluate_lanes ~probe:w.Sweep.Workload.probe ~cache
        (Option.get inst.Sweep.Workload.compiled)
        inst.Sweep.Workload.design ~count ~lane
    in
    (Array.map encode_result r, !lookups, !hits)
  in
  let cold, cold_lookups, cold_hits =
    block 4 (fun i -> lane_of inst cands.(i))
  in
  let one =
    Array.map (fun c -> block 1 (fun _ -> lane_of inst c)) cands
  in
  let warm, warm_lookups, warm_hits =
    block 4 (fun i -> lane_of inst cands.(i))
  in
  (* the block keys its source lane, cannot key the next one, and
     sends every miss down the one-candidate path, which keys each
     candidate on its own: five lookups, the source lane's twice *)
  check (Alcotest.pair int_t int_t) "cold block: hits, lookups" (0, 5)
    (cold_hits, cold_lookups);
  Array.iteri
    (fun i (_, l, h) ->
      check (Alcotest.pair int_t int_t)
        (Printf.sprintf "candidate %d alone: hits, lookups" i)
        (1, 1) (h, l))
    one;
  check (Alcotest.pair int_t int_t) "warm block: hits, lookups" (4, 4)
    (warm_hits, warm_lookups);
  check bool_t "warm block = cold block" true (warm = cold);
  Array.iteri
    (fun i (r, _, _) ->
      check string_t (Printf.sprintf "candidate %d alone" i) cold.(i) r.(0))
    one

(* Cache keys built by lane blocks equal the keys of each candidate's
   own extraction, byte for byte: grid and pareto waves. *)
let test_lane_keys_byte_identical () =
  let w = Sweep.Workload.fir ~n:64 () in
  let specs = w.Sweep.Workload.specs in
  let probe = w.Sweep.Workload.probe in
  let context = "fxeval/test" in
  List.iter
    (fun (what, generator) ->
      let keys = ref [] in
      let cache =
        {
          Refine.Eval.context;
          lookup =
            (fun k ->
              keys := k :: !keys;
              None);
          insert = (fun _ _ -> ());
        }
      in
      let r = Sweep.Pool.run ~cache ~workload:w ~generator () in
      let inst = w.Sweep.Workload.make_instance () in
      let ce = Option.get inst.Sweep.Workload.compiled in
      let own =
        List.map
          (fun (e : Sweep.Report.entry) ->
            let c = e.Sweep.Report.candidate in
            let ln = lane_of inst c in
            ln.Refine.Eval.prepare ();
            Refine.Eval.apply_assigns inst.Sweep.Workload.env
              ln.Refine.Eval.assigns;
            inst.Sweep.Workload.design.Refine.Flow.reset ();
            Refine.Eval.cache_key
              ~design:(Sfg.Graph.canonical_json (ce.Refine.Eval.extract ()))
              ~assigns:ln.Refine.Eval.assigns ~probe:(Some probe)
              ~seed:ln.Refine.Eval.seed ~cycles:ce.Refine.Eval.cycles ~context)
          r.Sweep.Report.entries
      in
      check int_t (what ^ ": one lookup per candidate") (List.length own)
        (List.length !keys);
      List.iteri
        (fun i (a, b) ->
          check string_t (Printf.sprintf "%s: candidate %d key" what i) a b)
        (List.combine own (List.rev !keys)))
    [
      ("grid", Sweep.Generator.grid ~specs ~f_min:2 ~f_max:9 ~seeds:[ 0; 5 ]);
      ( "pareto",
        Sweep.Generator.pareto ~specs ~f_min:2 ~f_max:12 ~seeds:[ 0; 3 ] () );
    ]

(* Keys a cache filled before any change to key construction holds:
   three fir sweep candidates, keyed as one lane block, pinned.  Two
   share [f] and differ in seed, two share the seed and differ in [f];
   all three also type [v[0]], which has no range annotation, so its
   [v[0]_in] input range is a type site of the block's graph. *)
let test_lane_keys_pinned () =
  let w = Sweep.Workload.fir () in
  let inst = w.Sweep.Workload.make_instance () in
  let cand id f stim_seed =
    let c =
      Sweep.Candidate.of_uniform ~id ~specs:w.Sweep.Workload.specs ~f
        ~stim_seed
    in
    {
      c with
      Sweep.Candidate.assigns =
        c.Sweep.Candidate.assigns
        @ [ { Sweep.Candidate.signal = "v[0]"; n = 3 + f; f } ];
    }
  in
  let cands = [| cand 0 4 1; cand 1 4 2; cand 2 7 1 |] in
  let keys = ref [] in
  let cache =
    {
      Refine.Eval.context = "fxeval/1";
      lookup =
        (fun k ->
          keys := k :: !keys;
          None);
      insert = (fun _ _ -> ());
    }
  in
  let block count lane =
    keys := [];
    ignore
      (Refine.Eval.evaluate_lanes ~probe:w.Sweep.Workload.probe ~cache
         (Option.get inst.Sweep.Workload.compiled)
         inst.Sweep.Workload.design ~count ~lane);
    List.rev !keys
  in
  let pinned =
    [
      "4e5444f629f6f2e75b3f02307ed71dd6";
      "855abb1fdb233701c7b4dceda0e052b9";
      "8b5238656a92693d09e81d9cebc011c1";
    ]
  in
  check (Alcotest.list string_t) "one block" pinned
    (block 3 (fun i -> lane_of inst cands.(i)));
  check (Alcotest.list string_t) "one-candidate blocks" pinned
    (List.concat_map
       (fun c -> block 1 (fun _ -> lane_of inst c))
       (Array.to_list cands))

let suite =
  ( "sweep",
    [
      Alcotest.test_case "snapshot roundtrip" `Quick test_snapshot_roundtrip;
      Alcotest.test_case "snapshot shape mismatch" `Quick
        test_snapshot_shape_mismatch;
      Alcotest.test_case "eval unknown signal" `Quick
        test_eval_unknown_signal_raises;
      Alcotest.test_case "sqnr_db_at contract" `Quick test_sqnr_db_at_contract;
      Alcotest.test_case "grid enumeration" `Quick test_grid_enumeration;
      Alcotest.test_case "bisect converges" `Quick test_bisect_converges;
      Alcotest.test_case "bisect infeasible" `Quick test_bisect_infeasible;
      Alcotest.test_case "pareto front" `Quick test_pareto_front;
      qcheck_front_equals_all_pairs;
      qcheck_float_lit_oracle;
      qcheck_to_json_oracle;
      Alcotest.test_case "front waves cover the edge classes" `Quick
        test_front_wave_coverage;
      Alcotest.test_case "pool jobs determinism" `Quick
        test_pool_jobs_deterministic;
      Alcotest.test_case "pool budget" `Quick test_pool_budget;
      Alcotest.test_case "pool sqnr monotone" `Quick test_pool_sqnr_monotone;
      Alcotest.test_case "checkpoint resume identical" `Quick
        test_checkpoint_resume_identical;
      Alcotest.test_case "checkpoint partial resume" `Quick
        test_checkpoint_partial_resume;
      Alcotest.test_case "checkpoint corrupt wave" `Quick
        test_checkpoint_corrupt_wave_reevaluated;
      Alcotest.test_case "checkpoint flipped sqnr" `Quick
        test_checkpoint_flipped_sqnr;
      Alcotest.test_case "checkpoint retire" `Quick test_checkpoint_retire;
      Test_support.Qseed.to_alcotest prop_torn_wave_reevaluated;
      Alcotest.test_case "checkpoint concurrent writers" `Quick
        test_checkpoint_concurrent_writers;
      Alcotest.test_case "checkpoint rejects counters" `Quick
        test_checkpoint_rejects_counters;
      Alcotest.test_case "checkpoint candidate mismatch" `Quick
        test_checkpoint_candidate_mismatch;
      Alcotest.test_case "fir stimulus stream" `Quick test_fir_stimulus_stream;
      qcheck_lanes_equal_one_lane;
      Alcotest.test_case "lane quarantine alone" `Quick
        test_lane_quarantine_alone;
      Alcotest.test_case "lane keys pinned" `Quick test_lane_keys_pinned;
      qcheck_spliced_keys;
      Alcotest.test_case "lane keys of a constant-typed design" `Quick
        test_lane_keys_const_fallback;
      Alcotest.test_case "lane keys byte-identical" `Quick
        test_lane_keys_byte_identical;
    ] )
