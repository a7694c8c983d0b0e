(** Signal-flow-graph construction and interpretation.

    Build with the combinator API; tie feedback loops with {!delay}
    (declare first) + {!connect_delay} (connect once the loop body
    exists).  {!simulate} interprets the graph cycle-accurately, used to
    check the static analyses against execution. *)

type t
type id = int

val create : unit -> t
val node_count : t -> int

(** Nodes in construction order (topological except delay feedback
    arcs). *)
val nodes : t -> Node.t list

(** Raises [Invalid_argument] for an unknown id. *)
val node : t -> id -> Node.t

(** Low-level node creation (arity-checked); prefer the builders. *)
val fresh : t -> name:string -> op:Node.op -> inputs:id list -> id

val input : t -> string -> lo:float -> hi:float -> id
val const : t -> ?name:string -> float -> id
val add : t -> ?name:string -> id -> id -> id
val sub : t -> ?name:string -> id -> id -> id
val mul : t -> ?name:string -> id -> id -> id
val div : t -> ?name:string -> id -> id -> id
val neg : t -> ?name:string -> id -> id
val abs : t -> ?name:string -> id -> id
val min_ : t -> ?name:string -> id -> id -> id
val max_ : t -> ?name:string -> id -> id -> id
val shift : t -> ?name:string -> id -> int -> id
val quantize : t -> ?name:string -> Fixpt.Dtype.t -> id -> id
val saturate : t -> ?name:string -> id -> lo:float -> hi:float -> id
val select : t -> ?name:string -> id -> id -> id -> id

(** Name an existing expression after the signal it drives. *)
val alias : t -> name:string -> id -> id

(** Declare a unit delay whose input is connected later (feedback). *)
val delay : t -> ?init:float -> string -> id

(** Tie the loop: the delay now registers [src] each cycle. *)
val connect_delay : t -> id -> id -> unit

(** A delay already fed by an existing node (feed-forward lines). *)
val delay_of : t -> ?init:float -> string -> id -> id

val mark_output : t -> string -> id -> unit
val outputs : t -> (string * id) list

(** [state_cone t] — the part of [t] a register-state search executes:
    every [Input], every [Delay] (read or not) and every [Quantize],
    plus the backward cone of all of these, in [t]'s node order and
    renumbered densely.  Each [Alias] is dissolved into its source, so
    its readers read that source.  Names and operations are kept, so
    inputs, delay registers and quantizers appear under the same names
    and in the same relative order as in [t]; the nodes that only feed
    declared outputs, or nothing, are dropped, and the result declares
    no outputs.  Pending delays stay pending. *)
val state_cone : t -> t

(** Canonical, byte-stable JSON of the whole graph — every node (id,
    name, operation with all numeric parameters as {e exact} hex-float
    literals, input ids) in construction order plus the declared
    outputs.  Two graphs render identically iff they are structurally
    identical with bit-identical parameters, which is what makes this
    string the hashing substrate of the content-addressed evaluation
    cache ({!Serve.Cache}). *)
val canonical_json : t -> string

(** {!canonical_json} with holes: the rendering cut at the operation of
    every node [hole] selects, into fixed chunks around those holes.
    A graph that differs from [t] only in the operations of the hole
    nodes renders as the chunks with each hole's operation filled in
    ({!add_filled}), so its canonical JSON costs one render of [t]
    plus the holes.  {!canonical_json} is the template without holes. *)
type template

val template : t -> hole:(Node.t -> bool) -> template

(** [add_filled b tpl op] appends to [b] the canonical JSON of
    [tpl]'s graph with each hole node [nd]'s operation replaced by
    [op nd]. *)
val add_filled : Buffer.t -> template -> (Node.t -> Node.op) -> unit

(** Pending (unconnected) delays — self-loop placeholders denoting
    hold registers. *)
val pending_ids : t -> id list

(** Accept a pending delay's self-loop as final (a hold register). *)
val seal_delay : t -> id -> unit

(** [Error] lists unconnected feedback delays. *)
val validate : t -> (unit, string) result

val validate_exn : t -> unit

(** Cycle-accurate interpretation: [inputs name cycle] supplies each
    input node's sample; returns per-node value traces in node order.
    Delays output their initial value at cycle 0. *)
val simulate :
  t ->
  steps:int ->
  inputs:(string -> int -> float) ->
  (string * float array) list
