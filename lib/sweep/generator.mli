(** Pluggable candidate generators — the search strategies of the sweep
    engine.

    A generator is a wave protocol: {!next} receives the evaluated
    results of the wave it produced last time (initially [[]]) and
    returns the next batch of candidates, or [[]] when the search is
    finished.  All candidates within one wave are independent, so the
    pool evaluates a whole wave in parallel; adaptive strategies place
    their data dependency {e between} waves.

    Generators are deterministic: candidate ids come from a private
    counter in generation order and every decision is a pure function
    of the (deterministic) evaluation results, so the candidate stream
    is identical however many workers evaluate it. *)

(** One evaluated candidate, as fed back into {!next}. *)
type result = Candidate.t * Refine.Eval.metrics

type t = {
  name : string;  (** strategy name, echoed in the report *)
  next : result list -> Candidate.t list;
      (** feed the previous wave's results, get the next wave; [[]]
          terminates the sweep *)
  conclusion : unit -> (string * string) list;
      (** strategy verdict (key/value pairs) once the search is done,
          e.g. the bisection's selected [f] *)
}

(** The strategy name. *)
val name : t -> string

(** Feed results of the previous wave, get the next. *)
val next : t -> result list -> Candidate.t list

(** The strategy's verdict after the final wave. *)
val conclusion : t -> (string * string) list

(** Exhaustive single-wave scan: every uniform [f] in
    [[f_min, f_max]] × every stimulus seed, [f]-major.
    Raises [Invalid_argument] on an empty range or seed list. *)
val grid :
  specs:Candidate.spec list -> f_min:int -> f_max:int -> seeds:int list -> t

(** Binary search for the minimal uniform [f] whose worst-seed SQNR
    meets [target_db] (assumes SQNR monotone in [f]).  One midpoint ×
    all seeds per wave; the converged [f] is confirmed by evaluation
    before the verdict.  Conclusion keys: [selected_f],
    [meets_target], [target_db]. *)
val bisect :
  specs:Candidate.spec list ->
  f_min:int ->
  f_max:int ->
  target_db:float ->
  seeds:int list ->
  t

(** [a] dominates [b] on (total-bits, SQNR): cheaper-or-equal,
    no-less-accurate, strictly better on one axis.  Equal points (ties)
    never dominate each other, and a NaN SQNR neither dominates nor is
    dominated.  {!pareto_front} counts a missing SQNR as [neg_infinity]. *)
val dominates : int * float -> int * float -> bool

(** The results no other result {!dominates}, preserving input order,
    in O(n log n): one sort by total bits, then one walk up the bit
    levels.  Shared with {!Report} so the frontier the adaptive
    generator refines and the one the report marks agree. *)
val pareto_front : result list -> result list

(** Two-wave frontier mapping: a coarse scan of [coarse] evenly spaced
    uniform [f] values (default 4), then the unevaluated [f±1]
    neighbours of the coarse frontier.  Raises [Invalid_argument] on an
    empty range/seed list or [coarse < 2]. *)
val pareto :
  ?coarse:int ->
  specs:Candidate.spec list ->
  f_min:int ->
  f_max:int ->
  seeds:int list ->
  unit ->
  t
