(** Analytical wordlength assignment — the pure-analysis baseline
    (paper reference [3], Willems et al.): MSBs from worst-case
    {!Range_analysis} ranges (conservative by construction), LSBs by
    distributing an output noise budget over the quantization points,
    weighted by each point's noise gain to the output. *)

type assignment = {
  name : string;
  msb : int option;  (** [None] — range exploded *)
  lsb : int option;
      (** [None] — node needs no quantization.  A register ([Delay])
          takes the LSB of the signal it holds, found through aliases
          and chained registers.  Always within the float
          exponent range [[-1074, 1023]]: a vanishing noise budget (huge
          gain) clamps to the subnormal floor rather than overflowing
          the int conversion. *)
}

type result = {
  assignments : assignment list;
  total_bits : int option;
      (** [None] if any signal has no finite format, or if an assignment
          is inverted ([msb < lsb] — no representable width) *)
  exploded : string list;
}

(** Summed width of the assignments: [None] if one has no finite
    format or an inverted one. *)
val total_bits : assignment list -> int option

(** Variance gain from a unit noise variance at [src] to [out]. *)
val noise_gain :
  Graph.t -> ranges:Range_analysis.result -> src:string -> out:string -> float

(** Assign every datapath node so accumulated quantization noise at
    [output] stays below [sigma_budget] (standard deviation).  Raises
    [Invalid_argument] on a non-positive budget. *)
val assign :
  ?widen_after:int -> Graph.t -> output:string -> sigma_budget:float -> result

val pp : Format.formatter -> result -> unit
