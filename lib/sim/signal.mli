(** Signal objects — the paper's [sig] and [reg] (§2.1, §2.3).

    Reading ({!value}) yields the monitored [(fx, fl, range)] triple;
    writing ({!assign}, usually via {!Ops.(<--)}) performs the §2.2
    quantization cast and feeds all monitors.  {!range} and {!error} are
    the two refinement annotations (explosion- and divergence-breakers,
    §4.1/§4.2). *)

type t = Env.entry

(** The declared signal name. *)
val name : t -> string

(** Current type; [None] = floating-point. *)
val dtype : t -> Fixpt.Dtype.t option

(** Combinational, registered, or constant. *)
val kind : t -> Env.kind

(** Combinational signal ([sig]); floating-point unless [~dtype]. *)
val create : Env.t -> ?dtype:Fixpt.Dtype.t -> string -> t

(** Registered signal ([reg]): writes commit at [Env.tick]. *)
val create_reg : Env.t -> ?dtype:Fixpt.Dtype.t -> string -> t

(** Retype (the refinement flow's commit step). *)
val set_dtype : t -> Fixpt.Dtype.t -> unit

(** Back to floating-point. *)
val clear_dtype : t -> unit

(** Explicit range annotation: reads propagate exactly [[lo, hi]] —
    the §4.1 remedy for feedback-driven MSB explosion. *)
val range : t -> float -> float -> unit

(** Drop the {!range} annotation. *)
val clear_range : t -> unit

(** Overrule the produced error with U(−h, h) (σ = h/√3): breaks
    float/fixed divergence on sensitive feedback signals (§4.2). *)
val error : t -> float -> unit

(** Read as a simulation value (counts as an access). *)
val value : t -> Value.t

(** Current values without monitoring (probes/tests). *)
val peek_fx : t -> float

(** See {!peek_fx}. *)
val peek_fl : t -> float

(** Assign (the paper's overloaded [=]): quantization cast, all
    monitors, staging for registered signals. *)
val assign : t -> Value.t -> unit

(** Initialize with a design-time constant (coefficient loading);
    counts as an assignment. *)
val init : t -> float -> unit

(* report accessors *)

val accesses : t -> int

(** Writes since reset. *)
val assignments : t -> int

(** Overflow events since reset. *)
val overflows : t -> int

(** Observed (simulated) value range. *)
val stat_range : t -> (float * float) option

(** Quasi-analytically propagated range. *)
val prop_range : t -> (float * float) option

(** The {!range} annotation, if any. *)
val explicit_range : t -> Interval.t option

(** The {!error} annotation's half-width, if any. *)
val error_injected : t -> float option

(** Consumed/produced quantization-error monitors. *)
val err_stats : t -> Stats.Err_stats.t

(** The value monitor behind {!stat_range}. *)
val range_stats : t -> Stats.Running.t

(** Finest LSB position needed to represent every assigned value exactly
    ([None] if only zeros) — the exact-signal escape hatch of the LSB
    rules. *)
val grid_lsb : t -> int option

(** The propagated range exploded (§4.1's failure mode). *)
val exploded : t -> bool

(** One report line: name, type, ranges, error stats. *)
val pp : Format.formatter -> t -> unit
