(** Overloaded operators on simulation values (§2.2, §4, Fig. 2).

    Each arithmetic operator performs three simultaneous computations:
    the fixed-point arithmetic (on [fx]; quantization happens only at
    assignment), the floating-point reference (on [fl]) and the range
    propagation (interval arithmetic on [iv]) — exactly the paper's
    operator-overloading strategy.  When a {!Record} session is active
    a fourth effect runs: the operator adds itself to the signal
    flowgraph being extracted (§4.1 "Analytical").

    Relational operators evaluate on the {e fixed-point} values: "the
    floating-point simulation is steered by fixed-point control
    decisions" (§4.2), so both executions take the same paths and the
    error statistics stay meaningful.

    Intended to be locally opened:
    {[
      let open Sim.Ops in
      c <-- (!!a *: !!b) +: cst 0.5
    ]} *)

type v = Value.t

(* A value is [| fx; fl; lo; hi; node |] (Value_repr): each operator
   allocates that one block, computes fx and fl here and the range with
   one Interval.Row kernel call into the result's slots [iv]. *)
let[@inline] fx (v : v) = Array.unsafe_get v 0
let[@inline] fl (v : v) = Array.unsafe_get v 1
let iv = 2
let no_node = -1.0

let cst = Value.const

(* Zero sessions anywhere: one atomic load, no domain-local lookup. *)
let[@inline] recording () = Atomic.get Record.sessions <> 0

(* The result is fresh: its provenance slot is written in place. *)
let record r kind args =
  match Record.active () with
  | None -> r
  | Some t ->
      Array.unsafe_set r 4 (Float.of_int (Record.op t kind args));
      r

let ( +: ) (a : v) (b : v) : v =
  let r = [| fx a +. fx b; fl a +. fl b; 0.0; 0.0; no_node |] in
  Interval.Row.add a iv b iv r iv;
  if recording () then record r Sfg.Node.Add [ a; b ] else r

let ( -: ) (a : v) (b : v) : v =
  let r = [| fx a -. fx b; fl a -. fl b; 0.0; 0.0; no_node |] in
  Interval.Row.sub a iv b iv r iv;
  if recording () then record r Sfg.Node.Sub [ a; b ] else r

let ( *: ) (a : v) (b : v) : v =
  let r = [| fx a *. fx b; fl a *. fl b; 0.0; 0.0; no_node |] in
  Interval.Row.mul a iv b iv r iv;
  if recording () then record r Sfg.Node.Mul [ a; b ] else r

let ( /: ) (a : v) (b : v) : v =
  let r = [| fx a /. fx b; fl a /. fl b; 0.0; 0.0; no_node |] in
  Interval.Row.div a iv b iv r iv;
  if recording () then record r Sfg.Node.Div [ a; b ] else r

let ( ~-: ) (a : v) : v =
  let r = [| -.fx a; -.fl a; 0.0; 0.0; no_node |] in
  Interval.Row.neg a iv r iv;
  if recording () then record r Sfg.Node.Neg [ a ] else r

let abs (a : v) : v =
  let r = [| Float.abs (fx a); Float.abs (fl a); 0.0; 0.0; no_node |] in
  Interval.Row.abs a iv r iv;
  if recording () then record r Sfg.Node.Abs [ a ] else r

let min_ (a : v) (b : v) : v =
  let r =
    [| Float.min (fx a) (fx b); Float.min (fl a) (fl b); 0.0; 0.0; no_node |]
  in
  Interval.Row.min_ a iv b iv r iv;
  if recording () then record r Sfg.Node.Min [ a; b ] else r

let max_ (a : v) (b : v) : v =
  let r =
    [| Float.max (fx a) (fx b); Float.max (fl a) (fl b); 0.0; 0.0; no_node |]
  in
  Interval.Row.max_ a iv b iv r iv;
  if recording () then record r Sfg.Node.Max [ a; b ] else r

(** Multiply by the constant [2^k] — a hardware shift; exact in all three
    components. *)
let shift_left (a : v) k : v =
  let s = Float.ldexp 1.0 k in
  let r = [| fx a *. s; fl a *. s; 0.0; 0.0; no_node |] in
  Interval.Row.shift_left a iv k r iv;
  if recording () then record r (Sfg.Node.Shift k) [ a ] else r

let shift_right a k = shift_left a (-k)

(* --- control: fixed-point steered ------------------------------------ *)

let ( <: ) (a : v) (b : v) = fx a < fx b
let ( >: ) (a : v) (b : v) = fx a > fx b
let ( <=: ) (a : v) (b : v) = fx a <= fx b
let ( >=: ) (a : v) (b : v) = fx a >= fx b
let ( =: ) (a : v) (b : v) = fx a = fx b
let ( <>: ) (a : v) (b : v) = fx a <> fx b

(** Two-way select steered by a fixed-point decision.  The propagated
    range is the join of both branches (the static analysis cannot know
    which branch runs).  Recorded as a [Select] whose condition is the
    frozen decision — sound for range purposes (both branches join). *)
let select cond (a : v) (b : v) : v =
  let chosen = if cond then a else b in
  let r = [| fx chosen; fl chosen; 0.0; 0.0; no_node |] in
  Interval.Row.join a iv b iv r iv;
  if recording () then
    record r Sfg.Node.Select [ cst (if cond then 1.0 else 0.0); a; b ]
  else r

(** Sign slicer: ±1 decision on the fixed-point value (the PAM slicer of
    the motivational example).  Recorded with the data value itself as
    the select condition, so the extracted graph keeps the dependence. *)
let sign (a : v) : v =
  let decision = if fx a >= 0.0 then 1.0 else -1.0 in
  let r = [| decision; decision; -1.0; 1.0; no_node |] in
  if recording () then record r Sfg.Node.Select [ a; cst 1.0; cst (-1.0) ]
  else r

(** Ablation variant of {!sign}: each execution follows its {e own}
    decision (fixed on [fx], float on [fl]).  This is exactly what the
    paper argues against in §4.2 — when the two decisions disagree the
    difference error jumps by a full decision distance and the error
    statistics lose their meaning.  The benches quantify that. *)
let sign_unsteered (a : v) : v =
  [|
    (if fx a >= 0.0 then 1.0 else -1.0);
    (if fl a >= 0.0 then 1.0 else -1.0);
    -1.0;
    1.0;
    no_node;
  |]

(* --- signal access ---------------------------------------------------- *)

(** Read a signal. *)
let ( !! ) = Signal.value

(** Explicit cast of an intermediate value through a type (§2.2's [cast]
    operator): quantizes [fx], leaves the float reference untouched, and
    clamps the range if the type saturates.  The cast has no environment
    to take a scratch cell from, so each domain keeps its own. *)
let domain_scratch = Domain.DLS.new_key Fixpt.Quantize.create_scratch

let cast dt (a : v) : v =
  let c = Fixpt.Quantize.of_dtype dt in
  let r =
    [| fx a; fl a; Array.unsafe_get a iv; Array.unsafe_get a (iv + 1); no_node |]
  in
  Fixpt.Quantize.exec_at c r 0 (Domain.DLS.get domain_scratch);
  if c.Fixpt.Quantize.saturating then
    Interval.Row.clamp c.Fixpt.Quantize.bounds 0 r iv r iv;
  if recording () then record r (Sfg.Node.Quantize dt) [ a ] else r

(** Assignment (the paper's overloaded [=]). *)
let ( <-- ) = Signal.assign
