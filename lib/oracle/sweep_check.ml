(** Sweep-determinism gate — the oracle for the parallel exploration
    engine.

    The sweep pool's contract is scheduling independence: the same
    workload, strategy and seeds must render a byte-identical report
    whatever the worker-domain count.  This gate runs a small FIR sweep
    once at [jobs=1] (the sequential reference) and once at [jobs=N],
    and compares the canonical JSON renderings as strings — any
    divergence (evaluation order leaking into ids, non-commutative
    monitor merging, shared mutable state between worker instances)
    fails it. *)

type result = {
  strategy : string;
  jobs : int;  (** the parallel side's worker count *)
  candidates : int;  (** evaluated by each side *)
  identical : bool;  (** sequential and parallel JSON byte-equal *)
}

type report = { results : result list }

(* Small but not trivial: 2 stimulus seeds × a few fractional positions
   exercise multi-candidate waves; 128 cycles keeps the gate fast. *)
let sweep ?(counters = false) ~jobs ~strategy () =
  let workload = Sweep.Workload.fir ~n:128 () in
  let specs = workload.Sweep.Workload.specs in
  let seeds = [ 0; 1 ] in
  let generator =
    match strategy with
    | "grid" -> Sweep.Generator.grid ~specs ~f_min:4 ~f_max:7 ~seeds
    | "bisect" ->
        Sweep.Generator.bisect ~specs ~f_min:2 ~f_max:10 ~target_db:30.0
          ~seeds
    | "pareto" ->
        Sweep.Generator.pareto ~coarse:3 ~specs ~f_min:2 ~f_max:10 ~seeds ()
    | s -> invalid_arg ("Sweep_check.sweep: unknown strategy " ^ s)
  in
  Sweep.Pool.run ~jobs ~counters ~workload ~generator ()

let strategies = [ "grid"; "bisect"; "pareto" ]

let gate_jobs = function
  | Some j -> max 2 j
  | None -> max 2 (min 4 (Domain.recommended_domain_count ()))

let run ?jobs () =
  let jobs = gate_jobs jobs in
  let results =
    List.map
      (fun strategy ->
        let sequential = sweep ~jobs:1 ~strategy () in
        let parallel = sweep ~jobs ~strategy () in
        {
          strategy;
          jobs;
          candidates = List.length sequential.Sweep.Report.entries;
          identical =
            Sweep.Report.to_json sequential = Sweep.Report.to_json parallel;
        })
      strategies
  in
  { results }

let passed t = List.for_all (fun r -> r.identical) t.results

let pp_report ppf t =
  Format.fprintf ppf "sweep determinism:@.";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-8s %3d candidates, jobs 1 vs %d: %s@."
        r.strategy r.candidates r.jobs
        (if r.identical then "identical" else "DIVERGED"))
    t.results
