(** Bit-exact wire format for cached evaluation results, and the glue
    binding a {!Cache} into the evaluator's {!Refine.Eval.cache} hook.

    The determinism contract of the sweep engine extends to the cache:
    a warm re-sweep must render a report {e byte-identical} to the cold
    one, which means a decoded {!Refine.Eval.metrics} must be
    indistinguishable from the freshly computed record — including the
    probe monitors that later merge into the report aggregates.  Two
    choices follow:

    - every float travels as a [%h] hex literal ([0x1.999999999999ap-4]
      style, with [nan]/[infinity] spelled out), which
      [float_of_string] reverses exactly — no shortest-decimal
      round-trip subtleties;
    - the monitors serialize through {!Stats.Running.raw} /
      {!Stats.Err_stats.raw} — the exact internal accumulator fields —
      so merges over rebuilt values reproduce the cold fold bit for
      bit.

    Both pieces come from {!Store.Monitor}, which {!Sweep.Checkpoint}'s
    wave records share.
    The payload is a fixed sequence of labelled lines
    ([fxmetrics 1] header, then [sqnr]/[bits]/[ovf]/[errmax]/[pv]/[pe]);
    {!decode} is strict and returns [None] on any deviation, which the
    cache layer treats as a miss — a stale or foreign payload can
    degrade performance, never correctness. *)

let version = 1

(* Bump on ANY change to what an evaluation computes (or to this
   format): the string is folded into every cache key, so old entries
   simply stop being addressable — invalidation without deletion. *)
let evaluator_version = "fxeval/1"

module M = Store.Monitor

let encode (m : Refine.Eval.metrics) =
  if m.Refine.Eval.counters <> None then
    invalid_arg "Serve.Codec.encode: counter-carrying metrics are not cacheable";
  String.concat "\n"
    [
      Printf.sprintf "fxmetrics %d" version;
      "sqnr " ^ M.opt_lit m.Refine.Eval.sqnr_db;
      Printf.sprintf "bits %d" m.Refine.Eval.total_bits;
      Printf.sprintf "ovf %d" m.Refine.Eval.overflow_count;
      "errmax " ^ M.float_lit m.Refine.Eval.probe_err_max;
      M.pv_line m.Refine.Eval.probe_values;
      M.pe_line m.Refine.Eval.probe_err;
    ]

(* --- strict decoding ---------------------------------------------------- *)

let ( let* ) = Option.bind

let decode s =
  match String.split_on_char '\n' s with
  | [ header; sqnr; bits; ovf; errmax; pv; pe ] ->
      let* () =
        if String.equal header (Printf.sprintf "fxmetrics %d" version) then
          Some ()
        else None
      in
      let* sqnr = M.field ~label:"sqnr" sqnr in
      let* sqnr_db = M.opt_of_lit sqnr in
      let* bits = M.field ~label:"bits" bits in
      let* total_bits = int_of_string_opt bits in
      let* ovf = M.field ~label:"ovf" ovf in
      let* overflow_count = int_of_string_opt ovf in
      let* errmax = M.field ~label:"errmax" errmax in
      let* probe_err_max = float_of_string_opt errmax in
      let* probe_values = M.pv_of_line pv in
      let* probe_err = M.pe_of_line pe in
      Some
        {
          Refine.Eval.sqnr_db;
          total_bits;
          overflow_count;
          probe_err_max;
          probe_values;
          probe_err;
          counters = None;
        }
  | _ -> None

(* --- binding into the evaluator hook ------------------------------------ *)

let context () = evaluator_version

let eval_cache cache =
  {
    Refine.Eval.context = context ();
    lookup = (fun key -> Option.bind (Cache.lookup cache key) decode);
    insert =
      (fun key m ->
        (* the compiled path never produces counters, but the hook
           stays total: a counter-carrying record is simply not cached *)
        if m.Refine.Eval.counters = None then
          Cache.insert cache key (encode m));
  }
