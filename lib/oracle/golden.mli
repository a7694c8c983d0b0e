(** Golden-trace conformance: byte-exact snapshots of per-signal
    monitor state, VCD digests and refinement reports for the standard
    workloads, compared against committed files under
    [test/conformance/golden/].

    Values are rendered as hex floats ([%h]) so a match is bit-exact and
    a mismatch is unambiguous.  The traces depend on the platform's libm
    for the workloads whose stimuli use transcendental functions (lms,
    timing, ddc, cordic angles) — regenerate with [--update-golden] when
    moving to a different libm (see EXPERIMENTS.md). *)

type outcome =
  | Match
  | Created  (** update mode: file did not exist, written *)
  | Updated  (** update mode: file differed, rewritten *)
  | Missing  (** check mode: golden file absent *)
  | Differ of string  (** check mode: first difference *)

type entry = { file : string; outcome : outcome }
type result = { dir : string; entries : entry list }

(** [FXREFINE_GOLDEN_DIR], else [test/conformance/golden] when present
    (repo root), else [golden] (the dune test sandbox layout). *)
val default_dir : unit -> string

(** Render the monitor-state trace of a built (and already run)
    workload. *)
val trace_of_built : Workloads.built -> string

(** The VHDL golden files — [(file, contents)] for the emitted 3-tap FIR
    entity in wrap and saturate modes and its self-checking testbench.
    Exact-binary-fraction coefficients and stimulus keep the text
    libm-independent. *)
val vhdl_cases : unit -> (string * string) list

(** Compare (or, with [update:true], rewrite) every golden file —
    workload traces, refinement reports and the VHDL cases. *)
val check : ?update:bool -> ?dir:string -> unit -> result

val passed : result -> bool
val pp_result : Format.formatter -> result -> unit
