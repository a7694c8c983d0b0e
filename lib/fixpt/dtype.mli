(** Fixed-point data types — the paper's
    [dtype(name, n, f, vtype, msbspec, lsbspec)] object (§2.1): a
    {!Qformat.t} plus MSB overflow mode and LSB rounding mode, under a
    name used in reports. *)

type t

(** Defaults: two's complement, wrap-around, round-off. *)
val make :
  string ->
  n:int ->
  f:int ->
  ?sign:Sign_mode.t ->
  ?overflow:Overflow_mode.t ->
  ?round:Round_mode.t ->
  unit ->
  t

(** {!make} from an existing {!Qformat.t}. *)
val of_format :
  ?overflow:Overflow_mode.t -> ?round:Round_mode.t -> string -> Qformat.t -> t

(** The report name the dtype was declared under. *)
val name : t -> string

(** The underlying bit layout. *)
val fmt : t -> Qformat.t

(** MSB behaviour ([msbspec]). *)
val overflow : t -> Overflow_mode.t

(** LSB behaviour ([lsbspec]). *)
val round : t -> Round_mode.t

(** Total bits. *)
val n : t -> int

(** Fractional bits. *)
val f : t -> int

(** Two's complement or unsigned. *)
val sign : t -> Sign_mode.t

(** Weight of the most significant magnitude bit. *)
val msb_pos : t -> int

(** Weight of the least significant bit ([-f]). *)
val lsb_pos : t -> int

(** Quantization step [2^lsb_pos]. *)
val step : t -> float

(** Smallest representable value. *)
val min_value : t -> float

(** Largest representable value. *)
val max_value : t -> float

(** Representable range [(min, max)] — what seeds range propagation for
    declared signals (§4.1). *)
val range : t -> float * float

(** Same layout, different MSB behaviour. *)
val with_overflow : t -> Overflow_mode.t -> t

(** Move the MSB position, keeping LSB and modes. *)
val with_msb : t -> int -> t

(** Move the LSB position, keeping MSB and modes. *)
val with_lsb : t -> int -> t

(** Structural equality, name included. *)
val equal : t -> t -> bool

(** Same representation and behaviour, ignoring the name. *)
val same_behaviour : t -> t -> bool

(** ["name<n,f,sign,msbspec,lsbspec>"]. *)
val to_string : t -> string

(** Prints {!to_string}. *)
val pp : Format.formatter -> t -> unit

(** Parse ["name<n,f[,sign[,msbspec[,lsbspec]]]>"] (name and trailing
    fields optional, defaulting as in {!make}); inverse of
    {!to_string}.  [None] on malformed input. *)
val of_string : string -> t option
