(** Differential testing of {!Fixpt.Quantize} against the executable
    spec {!Quantize_spec}: seeded random (value, dtype) cases for every
    sign × overflow × round mode combination, with the wordlength
    boundaries n ∈ {1, 62, 63, 64} forced into every batch.

    Deterministic by construction (all randomness comes from one
    {!Stats.Rng} seed), so a CI failure replays locally from the
    printed seed. *)

type case = { dtype : Fixpt.Dtype.t; value : float }

type mismatch = {
  case : case;
  field : string;  (** which outcome field disagreed *)
  spec : string;  (** spec-side rendering (hex floats: exact) *)
  impl : string;
}

type report = {
  seed : int;
  per_combo : int;
  total_cases : int;
  mismatches : mismatch list;  (** capped at 20 *)
  mismatch_count : int;
}

(** Every sign × overflow × round combination (12). *)
val combos :
  (Fixpt.Sign_mode.t * Fixpt.Overflow_mode.t * Fixpt.Round_mode.t) list

(** Default seed: [FXREFINE_QCHECK_SEED] from the environment, else a
    fixed constant — the same convention the qcheck suites use. *)
val default_seed : unit -> int

(** [run ~seed ~per_combo ()] — at least [per_combo] random cases per
    mode combination (default 1000). *)
val run : ?seed:int -> ?per_combo:int -> unit -> report

val passed : report -> bool
val pp_report : Format.formatter -> report -> unit
