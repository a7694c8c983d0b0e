(** Graphviz export of signal-flow graphs, optionally annotated with
    the range analysis. *)

val render : ?ranges:Range_analysis.result -> Graph.t -> string

val write_file :
  Graph.t -> string -> ?ranges:Range_analysis.result -> unit -> unit
