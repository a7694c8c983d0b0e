(** Pure simulation-based wordlength optimization — the comparison
    baseline after Sung & Kum (paper reference [1]): per-signal minimum
    wordlength search under an output-SQNR constraint, then lock-step
    padding — one full simulation per probe.  Reproduces the iteration-
    count trade-off that motivates the paper. *)

type result = {
  lsb_positions : (string * int) list;
  msb_positions : (string * int) list;
  simulation_runs : int;
  achieved_sqnr_db : float;
  uniform_extra_bits : int;  (** lock-step increments needed in step 3 *)
  total_bits : int;
}

(** Optimize the named signals so the SQNR at [probe] exceeds
    [target_db], searching LSB positions from 0 (coarsest) down to -20
    (finest). *)
val optimize :
  design:Flow.design ->
  signals:string list ->
  probe:string ->
  target_db:float ->
  unit ->
  result
