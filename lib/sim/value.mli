(** Simulation values — the central trick of the design environment
    (§4, Fig. 2): every expression carries the fixed-point value [fx]
    (quantization happens on assignment), the float reference [fl]
    (error monitoring), and the propagated range [iv] (quasi-analytical
    MSB estimation).  A fourth, normally dormant component, [node],
    carries graph provenance during {!Record} sessions.

    A value is one flat block of five floats, built and read inside the
    simulator without boxing ([Value_repr], private to lib/sim); to
    every other library the type is abstract. *)

type t = Value_repr.t

(** Sentinel [node] value (-1): no provenance. *)
val no_node : int

(** A constant known at design time: all components agree.  Raises
    [Invalid_argument "Interval.make: nan"] on NaN. *)
val const : float -> t

(** An external stimulus sample (alias of {!const}). *)
val of_float : float -> t

(** Override the propagated-range component. *)
val with_range : t -> Interval.t -> t

(** Override the float-reference component. *)
val with_fl : t -> float -> t

(** The fixed-point execution's value. *)
val fx : t -> float

(** The float reference execution's value. *)
val fl : t -> float

(** The propagated range. *)
val iv : t -> Interval.t

(** Graph provenance, {!no_node} outside recording. *)
val node : t -> int

(** Consumed error ε_c = [fl - fx] (§4.2). *)
val error : t -> float

(** {!const}[ 0.] *)
val zero : t

(** {!const}[ 1.] *)
val one : t

(** Both executions finite (explosion guard). *)
val is_finite : t -> bool

(** Prints [(fx, fl, iv)]. *)
val pp : Format.formatter -> t -> unit
