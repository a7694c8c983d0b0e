(* verify-bounded: [Verify.Engine.verify] on every [fxrefine verify]
   target (the six conformance workloads' extracted graphs and the two
   pinned biquads) x {No_overflow, No_limit_cycle}, at a reduced and
   fixed state budget. *)

open Common

let max_states = 1024
let properties = Verify.Engine.[ No_overflow; No_limit_cycle ]

(* The same targets [fxrefine verify all] runs. *)
let targets () =
  List.map
    (fun (w : Oracle.Workloads.t) ->
      ( w.Oracle.Workloads.name,
        fun () ->
          let b = w.Oracle.Workloads.build () in
          match b.Oracle.Workloads.extract_graph with
          | Some f -> f ()
          | None -> (
              match b.Oracle.Workloads.graph with
              | Some g -> g
              | None -> failwith ("no flowgraph for " ^ w.Oracle.Workloads.name)))
    )
    Oracle.Workloads.all
  @ Verify.Designs.all

let build_graphs () = List.map (fun (name, mk) -> (name, mk ())) (targets ())

let verify_pass graphs =
  List.concat_map
    (fun (name, g) ->
      List.map
        (fun prop ->
          let r, dt =
            time (fun () -> Verify.Engine.verify ~max_states prop g)
          in
          (name, g, r, dt))
        properties)
    graphs

let decided (r : Verify.Engine.report) =
  match r.Verify.Engine.verdict with
  | Verify.Engine.Proved | Verify.Engine.Refuted _ -> true
  | Verify.Engine.Bounded_out _ -> false

(* A verdict contradicting a known answer: biquad-under's overflow is
   refutable, biquad-repaired's is provable. *)
let contradicts name (r : Verify.Engine.report) =
  match (name, r.Verify.Engine.property, r.Verify.Engine.verdict) with
  | "biquad-under", Verify.Engine.No_overflow, Verify.Engine.Proved -> true
  | "biquad-repaired", Verify.Engine.No_overflow, Verify.Engine.Refuted _ ->
      true
  | _ -> false

let pass_json results =
  String.concat "\n"
    (List.map
       (fun (name, _, r, _) -> name ^ " " ^ Verify.Engine.report_to_json r)
       results)

(* Every refutation must replay through [confirm]; no verdict may
   contradict a known answer.  Returns (checked, failures, confirm
   times). *)
let check_pass results =
  List.fold_left
    (fun (n, bad, ts) (name, g, (r : Verify.Engine.report), _) ->
      let bad = if contradicts name r then bad + 1 else bad in
      match r.Verify.Engine.verdict with
      | Verify.Engine.Refuted ce ->
          let ok, dt = time (fun () -> Verify.Engine.confirm g ce) in
          (n + 1, (match ok with Ok () -> bad | Error _ -> bad + 1), dt :: ts)
      | _ -> (n + 1, bad, ts))
    (0, 0, []) results

(* The inputs are the fixed targets of [fxrefine verify all]; the seed
   does not change them. *)
let run_e2e ~seed:_ ~seconds ~run_dir =
  let refs = ref (host_samples 5) in
  let graphs, dt = time build_graphs in
  let setups = ref [ dt ] in
  let first = verify_pass graphs in
  let j0 = pass_json first in
  let checked, bad, _ = check_pass first in
  (* the window: passes, with the host and the set-up (a fresh build
     of every graph) sampled between them *)
  let by_pair = Hashtbl.create 16 and raw_s = ref [] in
  let failed = ref bad and decided_n = ref 0 and pairs = ref 0 in
  let t0 = now () in
  while now () -. t0 < seconds do
    refs := host_samples 3 @ !refs;
    setups := snd (time build_graphs) :: !setups;
    (* every pass starts from a collected heap, so where major GC work
       falls among the pairs does not depend on what ran before *)
    Gc.full_major ();
    let results, dt = time (fun () -> verify_pass graphs) in
    raw_s := dt :: !raw_s;
    List.iter
      (fun (name, _, (r : Verify.Engine.report), t) ->
        let k = (name, r.Verify.Engine.property) in
        Hashtbl.replace by_pair k
          (t :: Option.value (Hashtbl.find_opt by_pair k) ~default:[]);
        incr pairs;
        if decided r then incr decided_n)
      results;
    if not (String.equal (pass_json results) j0) then
      failed := !failed + List.length results
  done;
  let f = host_factor !refs in
  let path = Filename.concat run_dir "verdicts.json" in
  Out_channel.with_open_bin path (fun oc -> output_string oc j0);
  let pairs = !pairs in
  let per_pass = List.length first in
  (* a pair's latency is its median over the passes; a pass is the sum
     of its pairs' *)
  let pair_med =
    Hashtbl.fold (fun _ ts acc -> (median ts /. f) :: acc) by_pair []
  in
  let pass_med = List.fold_left ( +. ) 0.0 pair_med in
  let s = sorted pair_med in
  {
    attempted = pairs + checked;
    failed = !failed;
    notes =
      [
        Printf.sprintf
          "verify-bounded: %d (design, property) pairs per pass, max_states \
           %d, %d passes, %.3f s of passes"
          per_pass max_states (List.length !raw_s)
          (List.fold_left ( +. ) 0.0 !raw_s);
        Printf.sprintf
          "raw: median pass %.4f s; host factor %.3f from %d reference samples"
          (median !raw_s) f (List.length !refs);
        Printf.sprintf
          "job = one (design, property) verification: %d samples; \
           percentiles are over the %d pairs' median latencies (p99: the \
           slowest pair)"
          pairs (List.length pair_med);
        Printf.sprintf
          "check: %d verdicts checked (confirm + known answers), %d failures"
          checked bad;
        "run dir filesystem: " ^ fs_type run_dir;
      ];
    metrics =
      Layers.fill Layers.end_to_end
        [
          ("setup_s", median !setups /. f);
          ("cand_per_s", float_of_int per_pass /. pass_med);
          ("jobs_per_s", float_of_int per_pass /. pass_med);
          ("job_p50_ms", 1e3 *. quantile_sorted s 0.5);
          ("job_p99_ms", 1e3 *. quantile_sorted s 0.99);
          ("peak_rss_mb", vm_hwm_mb 0);
          ("disk_mb", mb (du path));
          ("verify_s", pass_med);
          ("decided_frac", float_of_int !decided_n /. float_of_int pairs);
        ];
  }

let exact_counts results =
  let sum f = List.fold_left (fun a (_, _, r, _) -> a + f r) 0 results in
  let count p = sum (fun r -> if p r.Verify.Engine.verdict then 1 else 0) in
  List.map
    (fun (k, v) -> (k, float_of_int v))
    [
      ("verify.states", sum (fun r -> r.Verify.Engine.stats.Verify.Engine.states));
      ( "verify.transitions",
        sum (fun r -> r.Verify.Engine.stats.Verify.Engine.transitions) );
      ("verify.proved", count (function Verify.Engine.Proved -> true | _ -> false));
      ( "verify.refuted",
        count (function Verify.Engine.Refuted _ -> true | _ -> false) );
      ( "verify.bounded",
        count (function Verify.Engine.Bounded_out _ -> true | _ -> false) );
    ]

let run_traced ~seed:_ ~seconds =
  let graph_ms = ref [] and verify_time = ref 0.0 and confirm = ref [] in
  let counts = ref [] and passes = ref 0 in
  let t0 = now () in
  (* at least two passes, so the exact counts can be compared *)
  while !passes < 2 || now () -. t0 < seconds do
    let graphs, dt = time build_graphs in
    graph_ms := dt :: !graph_ms;
    let results = verify_pass graphs in
    verify_time := !verify_time +. List.fold_left (fun a (_, _, _, t) -> a +. t) 0.0 results;
    let _, _, ts = check_pass results in
    confirm := ts @ !confirm;
    counts := exact_counts results :: !counts;
    incr passes
  done;
  let c1 = List.nth !counts (!passes - 1) and c2 = List.nth !counts (!passes - 2) in
  let mismatches, notes = Layers.exact_check c1 c2 in
  {
    attempted = 1;
    failed = 0;
    notes = Printf.sprintf "verify-bounded traced: %d passes" !passes :: notes;
    metrics =
      Layers.fill Layers.per_layer
        (c1
        @ [
            ("verify.graph_ms", 1e3 *. mean !graph_ms);
            ( "verify.transitions_per_s",
              float_of_int !passes *. List.assoc "verify.transitions" c1
              /. !verify_time );
            ("verify.confirm_ms", 1e3 *. mean !confirm);
            ("trace.exact_mismatches", float_of_int mismatches);
          ]);
  }
