(** Decision records produced by the refinement rules.  The MSB and LSB
    sides are decided independently (the paper's central design point);
    {!to_dtype} fuses them into a concrete type. *)

(** Which §5.1 comparison case produced the MSB decision. *)
type msb_case =
  | Agree  (** (a) F(stat) = F(prop): safe, non-saturated *)
  | Prop_pessimistic
      (** (b) F(prop) ≫ F(stat) or exploded: accumulator-like —
          saturation (or [range()]) at the statistic MSB *)
  | Trade_off  (** (c) moderately above: propagation MSB or saturate *)

val msb_case_to_string : msb_case -> string

type msb = {
  signal : string;
  msb_pos : int;  (** decided MSB weight *)
  mode : Fixpt.Overflow_mode.t;
  case : msb_case;
  stat_msb : int option;  (** F of the observed range *)
  prop_msb : int option;  (** F of the propagated range; [None]: exploded *)
  guard : (float * float) option;
      (** saturated signals: observed boundaries the hardware saturation
          must cover (§5.1's guard range) *)
}

(** Why the LSB position landed where it did. *)
type lsb_origin =
  | Sigma_rule  (** [2^p ≤ k_LSB·σ(ε)] — the §5.2 rule *)
  | Exact_grid  (** no error observed; position from the value grid *)
  | Overruled  (** an [error()] annotation fixed the error model *)
  | Already_typed  (** designer type: reported and checked, not derived *)
  | No_information

type lsb = {
  signal : string;
  lsb_pos : int option;
  round : Fixpt.Round_mode.t;
  origin : lsb_origin;
  sigma : float;  (** σ of the produced error the rule used *)
  mean : float;
  max_abs : float;
  diverged : bool;  (** error monitoring was unstable on this signal *)
  loss : Stats.Err_stats.loss;  (** consumed-vs-produced verdict *)
}

(** Fuse the two sides into a type; [None] when either side lacks a
    finite position or they are inconsistent. *)
val to_dtype :
  ?sign:Fixpt.Sign_mode.t -> msb:msb -> lsb:lsb -> unit -> Fixpt.Dtype.t option
