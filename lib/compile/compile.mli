(** Flat-schedule compilation of a signal-flow graph.

    {!Sfg.Graph.simulate} walks the node list every cycle, pattern
    matching each operator and allocating an argument list per node —
    fine for an oracle, hopeless for a sweep that re-simulates a design
    thousands of times.  [compile] lowers a closed graph once into a
    flat program over preallocated float arrays:

    - the schedule is the node-id order (construction order, which the
      graph guarantees is topological for everything except delay
      feedback — exactly the dependence a delay breaks);
    - each {!Sfg.Node.Quantize} node is fused at compile time to its
      {!Fixpt.Quantize.compiled} record (via the memoized
      {!Fixpt.Quantize.of_dtype} cache), so the per-sample cast is the
      same allocation-free [exec_into] the clock-true simulator uses;
    - delay registers live in a double-buffered block committed by an
      index (buffer) swap after every tick;
    - there are no per-sample hash or name lookups: names are resolved
      to array slots at compile time.

    {b Batching.} The value store is structure-of-arrays: node [i]'s
    value for lane [l] lives at [i * batch + l], so [batch] independent
    stimulus vectors advance per tick through the same instruction
    stream.  Lanes never interact; compiled execution of lane [l] is
    bit-identical to a [batch = 1] run fed lane [l]'s stimulus (the
    oracle property {!Oracle.Compile_check} enforces).

    {b Fidelity.} Per node and step, the computed value is bit-identical
    to the interpreter's: same operator semantics ({!Sfg.Node.eval_value}),
    same quantizer code, same delay-commit schedule.  The compiled
    executor is checked against {!Sfg.Graph.simulate} by byte-equality.

    {b Dual lattice.} With [~dual:true] the program also advances the
    float-reference lattice of the clock-true simulator (§4.2), in the
    same pass over the instruction stream: the
    same arithmetic over a parallel value store in which [Quantize] and
    [Saturate] are identities and [Select] is steered by the fixed
    lattice's condition.  That is what candidate evaluation needs to
    reproduce the per-signal consumed/produced error monitors. *)

(** Raised by {!compile} on a graph it cannot lower — unconnected
    feedback delays ({!Sfg.Graph.validate} failure) or a node schedule
    that is not topological. *)
exception Cannot_compile of string

(** A compiled program: the instruction stream plus its value store.
    Mutable (running it advances the store); not domain-shareable —
    each worker owns its own program, like workload instances. *)
type t

(** A stimulus row filler: [feed step dst off] writes the input's
    step-[step] sample of every lane [l] to [dst.(off + l)], for [l] in
    [0, batch).  It must be pure in [step] and write nothing else. *)
type feed = int -> float array -> int -> unit

(** [compile ?batch ?dual ?lane_dtype g] lowers [g].  [batch]
    (default 1) is the lane count B; [dual] (default false) enables the
    float-reference lattice.  [lane_dtype ~lane nd] is the dtype lane
    [lane] casts [Quantize] node [nd] to (default: the node's own), so
    one program can run B candidates that differ only in their
    quantizers: lane [l] is then bit-identical to a [batch = 1] run of
    [g] with lane [l]'s dtypes.  [lane_dtype ~lane] is applied once per
    lane, so per-lane work may sit in that partial application.
    Raises {!Cannot_compile} on an incomplete graph and
    [Invalid_argument] on [batch < 1].  Records a ["compile"] span when
    {!Trace.Spans} collection is on. *)
val compile :
  ?batch:int ->
  ?dual:bool ->
  ?lane_dtype:(lane:int -> Sfg.Node.t -> Fixpt.Dtype.t) ->
  Sfg.Graph.t ->
  t

val node_count : t -> int

(** Number of lowered instructions (constants are hoisted to {!reset},
    so this can be smaller than {!node_count}). *)
val instr_count : t -> int

(** Slot of the {e last} node named [name] (assignment order, like the
    simulator's name resolution). *)
val find : t -> string -> int option

(** {2 Row access}

    The value store itself, read a lane row at a time: node [id]'s
    lane-[l] value as of the last executed step is
    [(lattice t).(offset t ~id + l)].  The arrays are the program's
    own, live for its lifetime and overwritten every step; read them
    (from [on_step], or after a run), write them never. *)

val lattice : t -> float array

(** The float-reference lattice.  Raises [Invalid_argument] on a
    program compiled without [~dual:true]. *)
val ref_lattice : t -> float array

(** Row offset of node [id] in {!lattice}/{!ref_lattice}: [id * batch].
    Raises [Invalid_argument] on an unknown node. *)
val offset : t -> id:int -> int

(** Overflow events per [Quantize] node, in schedule order, summed over
    lanes and steps since the last {!reset}. *)
val overflows : t -> (string * int) list

(** Total overflow events since the last {!reset}, summed over lanes. *)
val overflow_count : t -> int

(** Overflow events of one lane since the last {!reset}, summed over
    its [Quantize] nodes.  Raises [Invalid_argument] on a lane outside
    [0, batch). *)
val lane_overflow_count : t -> lane:int -> int

(** Reinitialize the store: values zeroed, constants re-materialized,
    delay registers back to their init values, overflow counters
    cleared.  {!run} calls this itself. *)
val reset : t -> unit

(** [run ?on_step t ~steps ~inputs] executes [steps] ticks from a
    fresh {!reset}.  [inputs name] is the {!feed} of [Input] node
    [name]; it is resolved per input node once (so [inputs name] may
    precompute), and fills the node's lane row once per step.  With
    [~dual:true] the row is copied into the float lattice too.
    [on_step s] runs after step [s]'s delay commit, with the store
    readable a row at a time through {!lattice}/{!ref_lattice}.
    Records an ["exec"] span when {!Trace.Spans} collection is on.

    NaN reaching a [Quantize] node raises [Invalid_argument] exactly
    like the interpreter's cast. *)
val run :
  ?on_step:(int -> unit) ->
  t ->
  steps:int ->
  inputs:(string -> feed) ->
  unit

(** {2 Single-step drive}

    The verification engine ({!Verify}) enumerates the register state
    space explicitly: it plants a candidate state in the delay
    registers, advances exactly one tick, and reads the successor
    state back out.  These accessors expose that per-tick semantics
    without disturbing the batched {!run} contract — lane [l] of a
    single step is still bit-identical to a [batch = 1] step fed the
    same state and stimulus. *)

(** Input node names, in stimulus-resolution order (the order {!run}
    resolves its [inputs] feeds in). *)
val input_names : t -> string array

(** Number of delay registers (the machine's state dimension). *)
val register_count : t -> int

(** The reset state: every delay register's declared init value, as a
    fresh array of length {!register_count}. *)
val initial_state : t -> float array

(** [read_state t ~lane dst] copies lane [lane]'s current register
    block into [dst] (length must equal {!register_count}). *)
val read_state : t -> lane:int -> float array -> unit

(** [write_state t ~lane src] plants [src] as lane [lane]'s register
    state.  Overwrites whatever {!reset}/{!step_once} left there. *)
val write_state : t -> lane:int -> float array -> unit

(** [step_once t ~step ~inputs] advances every lane exactly one
    tick from the current register state: executes the full instruction
    stream (both lattices when dual) and commits the delay registers.
    Unlike {!run} it performs {e no} reset — callers own the state via
    {!write_state} — and overflow tallies keep accumulating, so
    {!overflow_count} deltas attribute events to individual steps.
    [inputs name] is the {!feed} of [Input] node [name], the convention
    {!run} uses: resolved once per input node per call, it fills the
    node's lane row once, with [step] as its step argument.  NaN
    reaching a [Quantize] raises [Invalid_argument] exactly like
    {!run}. *)
val step_once : t -> step:int -> inputs:(string -> feed) -> unit

(** [traces t ~steps ~inputs] — {!run}, capturing every node's
    per-lane trace: [(name, per_lane)] in node order with
    [per_lane.(l).(s)] the lane-[l] value at step [s].  Lane [l]'s
    column is byte-comparable to {!Sfg.Graph.simulate} fed the same
    stimulus. *)
val traces :
  t -> steps:int -> inputs:(string -> feed) -> (string * float array array) list
