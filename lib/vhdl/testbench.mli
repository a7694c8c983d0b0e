(** Self-checking VHDL testbench generation with golden vectors: drives
    the generated entity with the refinement's own stimulus and asserts
    the bit-true expected outputs (as integer mantissa codes), for any
    VHDL simulator. *)

type vector = { inputs : (string * int) list; expected : (string * int) list }

(** Run [step i] for [i = 0..n-1], sampling the named inputs/outputs
    (current fixed-point values) into golden vectors after each step. *)
val capture :
  formats:(string -> Fixpt.Qformat.t) ->
  inputs:(string * (unit -> float)) list ->
  outputs:(string * (unit -> float)) list ->
  int ->
  (int -> unit) ->
  vector list

(** Emit the testbench for [dut], checking [vectors]; [latency] — cycles
    between driving a vector and checking its outputs. *)
val emit :
  ?latency:int ->
  dut:Ast.entity ->
  formats:Of_sfg.format_map ->
  vector list ->
  string

val write_file :
  ?latency:int ->
  dut:Ast.entity ->
  formats:Of_sfg.format_map ->
  vector list ->
  string ->
  unit
