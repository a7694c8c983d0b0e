(** Trace-determinism gate — the oracle for the observability layer.

    Two contracts are held here, per sweep strategy:

    - {e counter determinism}: a sweep run with [~counters:true] renders
      {!Sweep.Report.counters_json} byte-identically at [jobs=1] and
      [jobs=N] — event counting rides the same commutative-merge,
      fold-in-id-order discipline as the monitor aggregates, and any
      scheduling leak (shared counter state, wave-order dependence,
      non-commutative watermark ties) breaks the string equality;
    - {e observer neutrality}: attaching the counting sink must not
      change simulation outcomes — the ordinary report of a counted
      sequential sweep is compared byte-for-byte against the uncounted
      one. *)

type result = {
  strategy : string;
  jobs : int;  (** the parallel side's worker count *)
  candidates : int;
  counters_identical : bool;
      (** counters JSON at jobs=1 vs jobs=N byte-equal *)
  observer_neutral : bool;
      (** report JSON with vs without counters byte-equal *)
}

type report = { results : result list }

let run ?jobs () =
  let jobs = Sweep_check.gate_jobs jobs in
  let results =
    List.map
      (fun strategy ->
        let sweep = Sweep_check.sweep ~strategy in
        let sequential = sweep ~jobs:1 ~counters:true () in
        let parallel = sweep ~jobs ~counters:true () in
        let plain = sweep ~jobs:1 ~counters:false () in
        {
          strategy;
          jobs;
          candidates = List.length sequential.Sweep.Report.entries;
          counters_identical =
            String.equal
              (Sweep.Report.counters_json sequential)
              (Sweep.Report.counters_json parallel);
          observer_neutral =
            String.equal
              (Sweep.Report.to_json sequential)
              (Sweep.Report.to_json plain);
        })
      Sweep_check.strategies
  in
  { results }

let passed t =
  List.for_all (fun r -> r.counters_identical && r.observer_neutral) t.results

let pp_report ppf t =
  Format.fprintf ppf "trace determinism:@.";
  List.iter
    (fun r ->
      Format.fprintf ppf
        "  %-8s %3d candidates, counters jobs 1 vs %d: %s; observer: %s@."
        r.strategy r.candidates r.jobs
        (if r.counters_identical then "identical" else "DIVERGED")
        (if r.observer_neutral then "neutral" else "PERTURBED"))
    t.results
