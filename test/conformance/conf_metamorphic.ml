(* Conformance: metamorphic invariants over the standard workloads.

   One alcotest case per workload so a failure names the design it broke
   on; the invariants themselves live in Oracle.Metamorphic. *)

open Fixrefine

let run_workload (w : Oracle.Workloads.t) () =
  let r = Oracle.Metamorphic.run_workload w in
  if not (Oracle.Metamorphic.passed r) then
    Alcotest.failf "%a" Oracle.Metamorphic.pp_report r;
  Alcotest.(check bool)
    (Printf.sprintf "%s: some invariants checked" w.Oracle.Workloads.name)
    true
    (r.Oracle.Metamorphic.checked > 0)

let test_all_workloads_covered () =
  let names =
    List.map (fun (w : Oracle.Workloads.t) -> w.Oracle.Workloads.name)
      Oracle.Workloads.all
  in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "workload %s registered" expected)
        true (List.mem expected names))
    [ "fir"; "lms"; "cordic"; "timing"; "ddc"; "sync" ]

let test_run_all_merges () =
  let r = Oracle.Metamorphic.run_all () in
  Alcotest.(check int) "six workloads" 6
    (List.length r.Oracle.Metamorphic.workloads);
  Alcotest.(check bool) "no failures" true (Oracle.Metamorphic.passed r)

(* The range cross-check skips a signal with no same-named node in the
   twin, so a twin that renamed its nodes would check nothing and pass.
   x, every d[k] and every v[k] must find a node with a finite range;
   in the lms twin, b and w explode as in the paper's iteration 1. *)
let test_twins_name_their_signals () =
  List.iter
    (fun (name, explode) ->
      let w = Option.get (Oracle.Workloads.find name) in
      let b = w.Oracle.Workloads.build () in
      let ana = Sfg.Range_analysis.run (Option.get b.Oracle.Workloads.graph) in
      let datapath =
        List.filter
          (fun s ->
            let n = Sim.Signal.name s in
            String.equal n "x"
            || String.starts_with ~prefix:"d[" n
            || String.starts_with ~prefix:"v[" n)
          (Sim.Env.signals b.Oracle.Workloads.env)
      in
      Alcotest.(check bool) (name ^ ": x, d and v found") true
        (List.length datapath >= 8);
      List.iter
        (fun s ->
          let n = Sim.Signal.name s in
          match Sfg.Range_analysis.range_of ana n with
          | None -> Alcotest.failf "%s twin: no node %s" name n
          | Some iv ->
              Alcotest.(check bool)
                (Printf.sprintf "%s twin: %s finite" name n)
                true
                (Float.is_finite (Interval.lo iv)
                && Float.is_finite (Interval.hi iv)))
        datapath;
      List.iter
        (fun n ->
          Alcotest.(check bool)
            (Printf.sprintf "%s twin: %s explodes" name n)
            true
            (List.mem n ana.Sfg.Range_analysis.exploded))
        explode)
    [ ("fir", []); ("lms", [ "b"; "w" ]) ]

let per_workload_cases =
  List.map
    (fun (w : Oracle.Workloads.t) ->
      Alcotest.test_case
        (Printf.sprintf "invariants: %s" w.Oracle.Workloads.name)
        `Quick (run_workload w))
    Oracle.Workloads.all

let suite =
  ( "conformance.metamorphic",
    Alcotest.test_case "all paper workloads registered" `Quick
      test_all_workloads_covered
    :: per_workload_cases
    @ [
        Alcotest.test_case "run_all merges all six" `Quick test_run_all_merges;
        Alcotest.test_case "fir and lms twins name their signals" `Quick
          test_twins_name_their_signals;
      ]
  )
