(** Automatic signal-flowgraph extraction from a simulation step.

    The paper's third MSB technique (§4.1 "Analytical") builds a signal
    flowgraph out of the source description and analyzes the dataflow
    statically.  In the original C++ environment that required a parser;
    here the overloaded operators themselves do it: during a recording
    session every operation additionally creates an {!Sfg.Node} whose
    inputs are the provenance ids carried on the operand {!Value}s, and
    every signal assignment names (and, for typed/annotated signals,
    quantizes or saturates) the expression node.  Executing one clock
    cycle of the design's step function under {!session} therefore
    yields the complete flowgraph — ready for {!Sfg.Range_analysis},
    {!Sfg.Noise_analysis}, {!Sfg.Wordlength} or {!Vhdl.Of_sfg}.

    Semantics and limitations (all shared with any trace-based
    extraction):
    - the recorded structure is the {e executed} one: OCaml-level [if]s
      contribute only the taken branch ({!Ops.select} and {!Ops.sign}
      record both); loops are unrolled as executed;
    - registered signals become [Delay] nodes, so feedback loops close
      correctly even though the recording is a single forward pass;
    - a combinational signal read before any recorded assignment is
      represented by its current value as a [Const] (coefficients) —
      or by its declared range as an [Input] if it was assigned external
      data during the recorded step. *)

type t = {
  graph : Sfg.Graph.t;
  (* signal id -> node currently driving the signal *)
  drivers : (int, int) Hashtbl.t;
  (* signal id -> delay node (registered signals) *)
  delays : (int, int) Hashtbl.t;
  mutable fresh : int;  (** counter for synthetic op-node names *)
}

(* Domain-local: parallel sweep workers each extract (and therefore
   record) inside their own domain — a shared ref would cross-record
   their graphs into each other. *)
let current : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* Sessions live across all domains: zero (the whole of a simulation
   outside extraction) lets the operators skip the DLS lookup with one
   load.  Non-zero only sends them to [active], which stays exact. *)
let sessions = Atomic.make 0

let active () = Domain.DLS.get current

let start () =
  let t =
    {
      graph = Sfg.Graph.create ();
      drivers = Hashtbl.create 64;
      delays = Hashtbl.create 16;
      fresh = 0;
    }
  in
  if Option.is_none (Domain.DLS.get current) then Atomic.incr sessions;
  Domain.DLS.set current (Some t);
  t

let stop () =
  if Option.is_some (Domain.DLS.get current) then begin
    Domain.DLS.set current None;
    Atomic.decr sessions
  end

let synth_name t base =
  t.fresh <- t.fresh + 1;
  Printf.sprintf "%s~%d" base t.fresh

(** Node for an operand value: its provenance if it has one, otherwise a
    constant of its fixed value (literals and detached externals). *)
let operand t (v : Value.t) =
  if Value.node v >= 0 then Value.node v
  else
    Sfg.Graph.const t.graph ~name:(synth_name t "lit") (Value.fx v)

(** Record a primitive operation over already-recorded operands. *)
let op t op_kind (args : Value.t list) =
  let inputs = List.map (operand t) args in
  Sfg.Graph.fresh t.graph
    ~name:(synth_name t (Sfg.Node.op_name op_kind))
    ~op:op_kind ~inputs
