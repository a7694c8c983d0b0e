(** Candidate points of a wordlength sweep: a per-signal [(n, f)]
    assignment plus a stimulus seed, carrying a dense generation-order
    [id] that the report (and every statistics merge) is keyed by —
    the anchor of scheduling-independent parallel sweeps. *)

(** One signal subject to exploration; [int_bits] (sign included) is
    fixed by range knowledge, the sweep varies [f], [n = int_bits + f]. *)
type spec = { signal : string; int_bits : int }

(** One signal's hypothesized wordlength. *)
type assign = { signal : string; n : int; f : int }

type t = {
  id : int;  (** dense generation-order index; the report sort key *)
  assigns : assign list;  (** per-signal wordlengths, spec order *)
  stim_seed : int;  (** stimulus seed this candidate is simulated under *)
  uniform_f : int option;
      (** [Some f] when every assign shares fractional position [f] *)
}

(** Uniform-fractional candidate: every spec gets [n = int_bits + f]. *)
val of_uniform : id:int -> specs:spec list -> f:int -> stim_seed:int -> t

(** The candidate as a {!Refine.Eval.apply_assigns}-ready list. *)
val to_dtypes : t -> (string * Fixpt.Dtype.t) list

(** Σ n over the candidate's assigns (its hardware cost). *)
val total_bits : t -> int

(** Compact one-line rendering ([#id seed=... f=...]). *)
val pp : Format.formatter -> t -> unit
