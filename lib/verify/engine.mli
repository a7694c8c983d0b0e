(** Sound bit-level verification of closed signal-flow graphs.

    The refinement flow's range estimates (statistic monitoring,
    {!Sfg.Range_analysis}) are fast but unsound: a feedback loop can
    overflow under the declared input range, or sustain a zero-input
    limit cycle, without either estimate noticing — exactly the failure
    modes the SMT-BMC literature verifies exhaustively for fixed-point
    filters (Abreu et al., arXiv:1305.2892; de Mello et al.,
    arXiv:1706.05088).  This engine is the pure-OCaml third leg: it
    bit-blasts small-wordlength state spaces by explicit-state search
    over the {e compiled} executor ({!Compile.step_once}), so every
    transition it explores uses byte-for-byte the semantics the
    simulator and sweep run.

    {b Input alphabet.}  Each [Input] node's admissible values are the
    grid points of the quantizer directly downstream of it (through
    [Alias] links), restricted to the declared interval.  When the total
    input entropy is at most [max_bits], the alphabet is the {e full}
    cross product and search verdicts are exhaustive; otherwise the
    engine falls back to corner-driven stimuli (interval endpoints,
    zero, ±full-scale, ±1 ulp) over a bounded unrolling of [depth]
    cycles — an underapproximation that can refute but never prove.

    {b Soundness.}  [Proved] is returned only when the alphabet was
    exhaustive and the reachable register-state closure completed
    within budget with no arithmetic escape: every reachable state
    under every admissible input has then literally been executed.
    [Refuted] is returned only after the counterexample has been
    replayed through both the graph interpreter and the compiled
    executor (byte-equal) with the violation reproduced.  Everything
    else is [Bounded_out].

    {b Search.}  The reachable-state closure is breadth-first from the
    reset state.  The search programs (the wide one and its batch-1
    twin) are compiled from the graph's {!Sfg.Graph.state_cone}: every
    input, every register (read or not), every quantizer and the
    backward cone of these, with aliases dissolved.  Nothing else can
    change a successor state, an overflow tally or a raise (only a
    cast raises, on NaN), so the search sees what the full graph
    would; the alphabet is still built from the full graph, and
    {!confirm} replays a counterexample through every node of it.
    One compiled step advances a block of frontier states at once:
    the program has [per * letters] lanes, with [per = max 1 (32 /
    letters)], and each block state fills [letters] lanes, one per
    letter.  Successors are numbered in (state, letter) order, so the
    states, counterexamples and {!stats} equal those of a search that
    steps one state at a time.  A block that raises, or whose overflow
    tally moves under [No_overflow], is redone one state at a time,
    and such a state letter by letter on a batch-1 twin.  Once the
    [max_states] table is full and has refused a state, no successor
    is read back any more (each would be known or refused again), but
    every block still executes, so overflow hits, raises and the
    transition count are those of the full bookkeeping.

    {b Limit-cycle scan.}  [No_limit_cycle] walks every explored state
    under zero input until it decays into a state already known to
    decay, revisits its own trajectory, or reaches the horizon.  The
    walks run as the lanes of the explore program, as many at a time
    as it has lanes, and each block is replayed in state-id order
    against the decay memo, so the verdict, counterexample and {!stats}
    equal those of one walk at a time. *)

(** The two properties the verifier decides. *)
type property =
  | No_overflow
      (** no [Quantize] node ever wraps/saturates under the declared
          input range *)
  | No_limit_cycle
      (** from every reachable post-stimulus state, the zero-input
          response decays to the all-zero register state within
          [depth] cycles (no non-decaying cycle) *)

type violation =
  | Overflow of { node : string; step : int }
      (** quantizer [node] overflows at cycle [step] of the stimulus *)
  | Limit_cycle of { start : int; period : int }
      (** register state at cycle [start] recurs at [start + period]
          with a nonzero register in between *)

(** A concrete refuting stimulus: per-input sample arrays (all of
    length [steps], in the compiled program's input order) driving the
    graph from reset into the violation. *)
type counterexample = {
  steps : int;
  stimulus : (string * float array) list;
  violation : violation;
}

type verdict =
  | Proved
  | Refuted of counterexample
  | Bounded_out of string  (** why the search was inconclusive *)

(** Search statistics — deterministic counters only (no wall-clock), so
    rendered reports are byte-identical across runs. *)
type stats = {
  letters : int;  (** input alphabet size (cross product) *)
  exhaustive : bool;  (** alphabet covered the whole declared grid *)
  states : int;  (** distinct register states discovered *)
  transitions : int;  (** (state, letter) edges executed *)
  truncated : bool;  (** a state/letter/depth budget was hit *)
  crashed : bool;  (** an explored transition raised (NaN at a cast) *)
}

type report = { property : property; verdict : verdict; stats : stats }

val property_name : property -> string
val property_of_string : string -> property option

(** [verify ?max_bits ?depth ?max_states property g] — run the search.
    [max_bits] (default 10) bounds the exhaustive alphabet at
    [2^max_bits] letters; [depth] (default 64) is the corner-mode
    unrolling bound and the limit-cycle horizon k; [max_states]
    (default 65536) bounds the reachable-state closure.  Raises
    {!Compile.Cannot_compile} on an unclosed graph. *)
val verify :
  ?max_bits:int -> ?depth:int -> ?max_states:int -> property -> Sfg.Graph.t -> report

(** [confirm g ce] replays [ce] through {!Sfg.Graph.simulate} and a
    fresh batch-1 {!Compile} program: checks every node trace
    byte-equal between the two, then re-establishes the violation from
    the traces (recomputing the refuted quantizer's cast for
    [Overflow]; comparing register states bitwise for [Limit_cycle]).
    [Ok ()] on success, [Error reason] naming the first divergence. *)
val confirm : Sfg.Graph.t -> counterexample -> (unit, string) result

(** Canonical JSON rendering of a report — stable key order, hex-float
    ([%h]) numerics, no timing: byte-identical across runs for the same
    graph and budgets. *)
val report_to_json : report -> string

(** Human-readable one-or-few-line rendering. *)
val pp_report : Format.formatter -> report -> unit

(** {2 Test-only}

    Not part of the API: the state search and the zero-input
    limit-cycle scan, exposed so their lane blocks can be checked
    against one-state-at-a-time and one-walk-at-a-time oracles. *)
module For_testing : sig
  type lc_result =
    | Lc_none  (** every walk decays within the horizon *)
    | Lc_unknown  (** some walk hit the horizon or raised *)
    | Lc_found of { sid : int; start : int; period : int }
        (** walk [sid] revisits position [start] after [period] steps
            through a nonzero state *)

  (** [scan_limit_cycles ~lanes g ~states ~horizon] scans [states] (in
      order, as explored state ids [0, 1, ...]) under zero input on
      [g]'s state cone compiled at batch [lanes] (the alphabet size in
      {!verify}) and at batch 1.  Returns the result, the transitions counted and whether
      a walk raised. *)
  val scan_limit_cycles :
    lanes:int ->
    Sfg.Graph.t ->
    states:float array list ->
    horizon:int ->
    lc_result * int * bool

  (** The search's result: [states], [parents] ((pred id, letter), with
      [(-1, -1)] for the reset state) and [depths] by state id, and
      [hit] = [Some (state, letter, node)] when a [stop_on_overflow]
      search stopped at quantizer [node]. *)
  type explored = {
    states : float array list;
    parents : (int * int) list;
    depths : int list;
    transitions : int;
    truncated : bool;
    crashed : bool;
    hit : (int * int * string) option;
  }

  (** [explore g ~letters ~max_states ~depth_limit ~stop_on_overflow]
      runs the search on [g] over [letters] (at least one; letter [l]
      holds one value per [Input] node, in node order) from the reset
      state, keeping at most [max_states] states and expanding only
      states of depth below [depth_limit] when it is nonnegative.  The
      programs are compiled from [g]'s state cone, and the wide one has
      as many lanes as {!verify} gives an alphabet of that size. *)
  val explore :
    Sfg.Graph.t ->
    letters:float array array ->
    max_states:int ->
    depth_limit:int ->
    stop_on_overflow:bool ->
    explored
end
