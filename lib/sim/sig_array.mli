(** Signal arrays — the paper's [sigarray] and [regarray] (§2.3):
    independently monitored signals sharing a base name (elements report
    as [name[i]]) and, optionally, a common dtype. *)

type t

(** Array of combinational signals ([sigarray]). *)
val create : Env.t -> ?dtype:Fixpt.Dtype.t -> string -> int -> t

(** Array of registered signals ([regarray]). *)
val create_reg : Env.t -> ?dtype:Fixpt.Dtype.t -> string -> int -> t

(** Element count. *)
val length : t -> int

(** Raises [Invalid_argument] out of bounds. *)
val get : t -> int -> Signal.t

(** Index syntax: [arr.%(i)]. *)
val ( .%() ) : t -> int -> Signal.t

(** Apply to every element in index order. *)
val iter : (Signal.t -> unit) -> t -> unit

(** {!iter} with the index. *)
val iteri : (int -> Signal.t -> unit) -> t -> unit

(** Elements in index order. *)
val to_list : t -> Signal.t list

(** Apply a dtype to every element. *)
val set_dtype : t -> Fixpt.Dtype.t -> unit

(** Annotate every element with the same explicit range. *)
val range : t -> float -> float -> unit

(** Initialize elements from a float array (coefficient loading);
    raises [Invalid_argument] on a length mismatch. *)
val init_values : t -> float array -> unit
