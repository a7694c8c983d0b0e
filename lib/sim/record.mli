(** Recording sessions for automatic signal-flowgraph extraction (§4.1
    "Analytical") — see {!Extract} for the one-call API.

    While a session is active, the overloaded operators ({!Ops}) and the
    signal read/write paths ({!Signal}) add nodes to [graph]; the
    [drivers]/[delays] tables map signal ids to the nodes currently
    representing them. *)

type t = {
  graph : Sfg.Graph.t;
  drivers : (int, int) Hashtbl.t;  (** signal id → driving node *)
  delays : (int, int) Hashtbl.t;  (** signal id → delay node (registers) *)
  mutable fresh : int;
}

(** The recorder currently capturing, if any.  The session is
    domain-local: at most one per domain, and parallel sweep workers
    can extract concurrently without cross-recording each other's
    graphs. *)
val active : unit -> t option

(** Sessions active in all domains.  While it reads 0 no domain is
    recording, so the operators and signal accessors skip {!active}
    with one atomic load. *)
val sessions : int Atomic.t

(** Begin a session (replacing any active one). *)
val start : unit -> t

(** Stop capturing (no-op when idle). *)
val stop : unit -> unit

(** Node for an operand value: its provenance if present, else a
    [Const] of its fixed value. *)
val operand : t -> Value.t -> int

(** Record a primitive operation over already-recorded operands. *)
val op : t -> Sfg.Node.op -> Value.t list -> int
