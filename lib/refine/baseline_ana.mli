(** Pure analytical wordlength derivation — the comparison baseline
    after Willems et al.'s interpolative approach (paper reference [3]):
    static analysis over a signal-flow graph, no simulation, worst-case
    conservative. *)

type result = {
  wordlength : Sfg.Wordlength.result;
  range_iterations : int;
  exploded : string list;
}

(** Run the pure SFG analyses and collect per-node choices. *)
val analyze :
  ?widen_after:int -> Sfg.Graph.t -> output:string -> sigma_budget:float ->
  result

(** Chosen MSB position per signal ([None]: unbounded). *)
val msb_positions : result -> (string * int option) list

(** Average MSB overestimation (bits/signal) against reference positions
    (e.g. the hybrid flow's), over signals present in both. *)
val overhead_bits : result -> reference:(string * int) list -> float option

(** Summed wordlength over the nodes named in [signals], when each of
    them is bounded. *)
val total_bits : result -> signals:string list -> int option
