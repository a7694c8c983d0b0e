(** Simulation values.

    The central trick of the design environment (§4, Fig. 2): every
    expression carries {e three} parallel computations at once —

    - [fx]: the fixed-point value (held as a float; quantization happens
      on signal assignment, §2.2);
    - [fl]: the reference floating-point value, used for error
      monitoring;
    - [iv]: the propagated range, used for quasi-analytical MSB
      estimation.

    The overloaded operators in {!Ops} combine all three components, so
    one simulation run simultaneously produces the fixed-point behaviour,
    the float reference, range statistics and error statistics.

    A fourth, normally dormant component is [node]: when a {!Record}
    session is active (the §4.1 "Analytical" technique — automatic
    signal-flowgraph extraction), it carries the id of the graph node
    that produced this value; [no_node] (-1) otherwise.

    A value is one flat float block, [| fx; fl; lo; hi; node |] (see
    [Value_repr]): the range is an {!Interval.Row} interval at offset 2
    and converts to {!Interval.t} only here, at the API edge. *)

type t = Value_repr.t

let no_node = -1

(** A constant known at "design time": all three components agree.  NaN
    is rejected as {!Interval.make} rejects it. *)
let const c : t =
  if Float.is_nan c then invalid_arg "Interval.make: nan";
  [| c; c; c; c; -1.0 |]

(** An external stimulus sample: fixed and float agree (the error enters
    only at the first quantizing assignment); the propagated range is the
    single point unless the receiving signal declares a wider range. *)
let of_float = const

(** [with_range v iv] overrides the propagated-range component — how a
    signal's [range()] annotation enters expressions. *)
let with_range (v : t) iv : t =
  let r = [| v.(0); v.(1); 0.0; 0.0; v.(4) |] in
  Interval.Row.put r 2 iv;
  r

(** [with_fl v x] overrides the float-reference component. *)
let with_fl (v : t) x : t = [| v.(0); x; v.(2); v.(3); v.(4) |]

let fx (t : t) = t.(0)
let fl (t : t) = t.(1)
let iv (t : t) = Interval.Row.get t 2
let node (t : t) = Float.to_int t.(4)

(** Consumed error ε_c = float reference − fixed value (§4.2). *)
let error (t : t) = t.(1) -. t.(0)

let zero = const 0.0
let one = const 1.0

let is_finite (t : t) = Float.is_finite t.(0) && Float.is_finite t.(1)

let pp ppf t =
  Format.fprintf ppf "{fx=%g; fl=%g; iv=%s}" (fx t) (fl t) (Interval.to_string (iv t))
