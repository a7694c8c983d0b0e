(** Verification-oracle gate — wires {!Verify.Engine} into the
    conformance machinery ([fxrefine check --verify]).

    Over the six conformance workloads' extracted flowgraphs plus the
    two pinned biquad exemplars ({!Verify.Designs}), for both
    properties (no-overflow, no-limit-cycle):

    - every target must produce a verdict (a raised exception fails);
    - verdicts must be {e deterministic}: verifying a freshly rebuilt
      graph renders a byte-identical JSON report;
    - every [Refuted] no-overflow verdict is cross-checked against
      {!Sfg.Range_analysis}: if the analysis claims the refuted
      quantizer's input range fits its type, the ranges are unsound and
      the gate fails loudly;
    - every counterexample is serialized as a hex-float stimulus file
      ([verify_<workload>_<property>.stim]) under the golden directory
      — compared byte-exact in check mode, (re)written in update mode —
      and then {e replayed from its serialized form} through both the
      interpreter and the compiled executor ({!Verify.Engine.confirm}),
      so refuted cases are permanent, reproducible regression inputs. *)

type result = { name : string; detail : string; ok : bool }
type report = { results : result list }

(** Search budgets the gate verifies under (small enough to keep the
    gate fast, large enough to close the biquad state spaces). *)
val max_bits : int

val depth : int
val max_states : int

(** The verified designs, by name: each conformance workload's
    extracted flowgraph ({!Workloads.all} order), then the pinned
    exemplars of {!Verify.Designs}.  Each entry rebuilds its graph from
    scratch. *)
val targets : unit -> (string * (unit -> Sfg.Graph.t)) list

(** [run ?update ?dir ()] — [update] (re)writes the golden stimulus
    files; [dir] defaults to {!Golden.default_dir}. *)
val run : ?update:bool -> ?dir:string -> unit -> report

val passed : report -> bool
val pp_report : Format.formatter -> report -> unit
