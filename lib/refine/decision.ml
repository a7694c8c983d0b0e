(** Decision records produced by the refinement rules.

    The MSB and LSB sides are decided independently (the paper's central
    design point): an {!msb} decision fixes the integer weight and the
    overflow mode, an {!lsb} decision fixes the fractional weight and the
    rounding mode; {!to_dtype} fuses them into a concrete type. *)

(** Which §5.1 comparison case produced the MSB decision. *)
type msb_case =
  | Agree  (** (a) F(stat) = F(prop): safe, non-saturated *)
  | Prop_pessimistic
      (** (b) F(prop) ≫ F(stat) or exploded: accumulator-like; use
          saturation (or an explicit [range()]) at the statistic MSB *)
  | Trade_off
      (** (c) F(prop) moderately above F(stat): either trust propagation
          (safe MSB) or saturate at the statistic MSB *)

let msb_case_to_string = function
  | Agree -> "agree"
  | Prop_pessimistic -> "prop-pessimistic"
  | Trade_off -> "trade-off"

type msb = {
  signal : string;
  msb_pos : int;  (** decided MSB weight *)
  mode : Fixpt.Overflow_mode.t;
  case : msb_case;
  stat_msb : int option;  (** F of the observed range; None: no samples *)
  prop_msb : int option;  (** F of the propagated range; None: exploded *)
  guard : (float * float) option;
      (** for saturated signals: the observed boundaries the hardware
          saturation must cover (§5.1's guard range) *)
}

(** Why the LSB position landed where it did. *)
type lsb_origin =
  | Sigma_rule  (** [2^p ≤ k_LSB·σ(ε)] — the §5.2 rule *)
  | Exact_grid  (** no error observed; position from the value grid *)
  | Overruled  (** an [error()] annotation fixed the error model *)
  | Already_typed
      (** signal carries a designer type: its LSB is reported and only
          checked (consumed vs produced precision), not re-derived *)
  | No_information  (** no samples and no errors: left at full precision *)

type lsb = {
  signal : string;
  lsb_pos : int option;  (** decided LSB weight; None if undecidable *)
  round : Fixpt.Round_mode.t;
  origin : lsb_origin;
  sigma : float;  (** σ of the produced error the rule used *)
  mean : float;  (** μ of the produced error *)
  max_abs : float;  (** m̂ of the produced error *)
  diverged : bool;  (** error monitoring was unstable on this signal *)
  loss : Stats.Err_stats.loss;  (** consumed-vs-produced verdict *)
}

(** Fuse MSB and LSB decisions into a signal type.  [None] when either
    side is missing a finite position. *)
let to_dtype ?(sign = Fixpt.Sign_mode.Tc) ~(msb : msb) ~(lsb : lsb) () =
  match lsb.lsb_pos with
  | None -> None
  | Some p when p > msb.msb_pos -> None
  | Some p ->
      Some
        (Fixpt.Dtype.of_format ~overflow:msb.mode ~round:lsb.round msb.signal
           (Fixpt.Qformat.of_positions ~msb:msb.msb_pos ~lsb:p sign))
