(** Counterexample stimulus files — the bridge from a [Refuted] verdict
    into the permanent conformance corpus.

    Plain text, hex-float ([%h]) samples so the round trip is exact and
    the files diff cleanly under [test/conformance/golden/]:

    {v
    # fxrefine verify counterexample v1
    property no-overflow
    violation overflow 3 y
    steps 4
    input x 0x1p+0 -0x1p+0 0x1p+0 0x1p+0
    v}

    Rendering is canonical (input order preserved, one line per input),
    so a re-verified design reproduces the file byte-for-byte. *)

val to_string : property:Engine.property -> Engine.counterexample -> string

(** Inverse of {!to_string}; [Error] names the offending line. *)
val of_string : string -> (Engine.property * Engine.counterexample, string) result

val load : path:string -> (Engine.property * Engine.counterexample, string) result
