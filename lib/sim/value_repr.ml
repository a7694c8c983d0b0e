(* The flat representation behind [Value.t], private to lib/sim: one
   float array [| fx; fl; lo; hi; node |] — the fixed value, the float
   reference, the propagated range as an [Interval.Row] interval at
   offset 2 ([lo > hi] encodes the empty range), and the graph
   provenance as a float (-1 outside recording; graph ids are exact as
   floats).  The modules of lib/sim build and read it directly, so no
   operator, read or assignment boxes a float; every other library sees
   [Value.t] as abstract. *)

type t = float array
