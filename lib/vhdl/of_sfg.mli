(** VHDL generation from a refined signal-flow graph: every node becomes
    a [signed] mantissa vector, binary-point alignment becomes explicit
    shifts, LSB modes become shift/round logic and MSB modes wrap
    ([resize]) or saturate ([sat]).  [Div] is unsupported in hardware
    generation and raises {!Unsupported}. *)

exception Unsupported of string

type format_map = string -> Fixpt.Qformat.t

(** The VHDL-93 basic identifier of a name: every character outside
    [[A-Za-z0-9_]] becomes [_], runs of [_] collapse to one and a
    trailing [_] is dropped ([vhdl_name "s_d[0]"] is ["s_d_0"]).  Ports
    are [vhdl_name ("i_" ^ node)] and [vhdl_name ("o_" ^ output)],
    signals [vhdl_name ("s_" ^ node)]. *)
val vhdl_name : string -> string

(** [entity ~name ~formats g] — [formats] assigns a format per node
    name; [saturating] names nodes whose MSB mode is saturation.
    Raises [Invalid_argument] naming both nodes when two node names (or
    two output names) give the same identifier, ignoring case. *)
val entity :
  ?saturating:(string -> bool) ->
  name:string ->
  formats:format_map ->
  Sfg.Graph.t ->
  Ast.entity

(** Every node [<n, f, tc>] (quick tests). *)
val uniform_formats : n:int -> f:int -> format_map

(** Format map from refinement-flow types, with a default for untyped
    nodes. *)
val formats_of_types :
  ?default:Fixpt.Qformat.t -> (string * Fixpt.Dtype.t) list -> format_map
