(** Pure analytical wordlength derivation — the comparison baseline
    after Willems et al.'s interpolative approach (reference [3] of the
    paper).

    Thin orchestration over {!Sfg.Range_analysis} / {!Sfg.Wordlength}:
    a design that can describe itself as a signal-flow graph gets a
    complete wordlength assignment from static analysis alone — very
    fast (no simulation), but worst-case conservative: ranges are
    hull-of-all-executions, multiplications use magnitude bounds, and
    feedback either saturates by annotation or explodes.  The paper's
    §1 critique ("overestimation of signal wordlengths") is exactly the
    [overhead_bits] this module reports against a reference
    assignment. *)

type result = {
  wordlength : Sfg.Wordlength.result;
  range_iterations : int;
  exploded : string list;
}

(** Run the analytical assignment on a flowgraph: output noise budget
    [sigma_budget] at node [output]. *)
let analyze ?widen_after graph ~output ~sigma_budget =
  let wl = Sfg.Wordlength.assign ?widen_after graph ~output ~sigma_budget in
  let ranges = Sfg.Range_analysis.run ?widen_after graph in
  {
    wordlength = wl;
    range_iterations = ranges.Sfg.Range_analysis.iterations;
    exploded = wl.Sfg.Wordlength.exploded;
  }

(** MSB positions per signal from the analytical ranges ([None] =
    exploded). *)
let msb_positions result =
  List.map
    (fun (a : Sfg.Wordlength.assignment) ->
      (a.Sfg.Wordlength.name, a.Sfg.Wordlength.msb))
    result.wordlength.Sfg.Wordlength.assignments

(** Average MSB overestimation (in bits/signal) of the analytical
    assignment against reference positions (e.g. the hybrid flow's
    decisions), over signals present in both. *)
let overhead_bits result ~reference =
  let deltas =
    List.filter_map
      (fun (name, msb) ->
        match (msb, List.assoc_opt name reference) with
        | Some m, Some r -> Some (Float.of_int (m - r))
        | _ -> None)
      (msb_positions result)
  in
  match deltas with
  | [] -> None
  | _ ->
      Some (List.fold_left ( +. ) 0.0 deltas /. Float.of_int (List.length deltas))

(** Total bits of the assignment over the nodes named in [signals]
    ([None] when one of their ranges exploded — the honest analytical
    answer for an unannotated feedback design).  An extracted graph
    also holds a node for every intermediate operation and type cast,
    which a designer's signal set does not count. *)
let total_bits result ~signals =
  Sfg.Wordlength.total_bits
    (List.filter
       (fun (a : Sfg.Wordlength.assignment) ->
         List.mem a.Sfg.Wordlength.name signals)
       result.wordlength.Sfg.Wordlength.assignments)
