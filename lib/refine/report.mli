(** Table-formatted refinement reports, in the layout of the paper's
    Tables 1 (MSB analysis) and 2 (LSB analysis). *)

type msb_row

(** The paper's Table-1-style MSB table. *)
val pp_msb_table : Format.formatter -> msb_row list -> unit

type lsb_row

(** The paper's Table-2-style LSB table. *)
val pp_lsb_table : Format.formatter -> lsb_row list -> unit

(** Decide and render every signal's MSB row. *)
val msb_table : ?config:Msb_rules.config -> Sim.Env.t -> msb_row list

(** Decide and render every signal's LSB row. *)
val lsb_table : ?config:Lsb_rules.config -> Sim.Env.t -> lsb_row list

(** {!msb_table} to stdout. *)
val print_msb : ?config:Msb_rules.config -> Sim.Env.t -> unit

(** {!lsb_table} to stdout. *)
val print_lsb : ?config:Lsb_rules.config -> Sim.Env.t -> unit

(** One-line summary: signal/saturated/exploded counts, total bits. *)
val summary : Sim.Env.t -> Decision.msb list -> Decision.lsb list -> string
