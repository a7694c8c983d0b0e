(** Simulation environment: the signal registry and the clock.

    An [Env.t] plays the role of the paper's simulation engine (§2): it
    owns every signal object of a design, the deterministic noise source
    used by [error()] overruling, the clock that commits registered
    signals, and the design-wide overflow policy.

    The full mutable state of a signal lives here (type {!entry});
    {!Signal} provides the user-facing operations over entries.  Keeping
    the state in the registry module avoids a dependency cycle and lets
    the refinement flow iterate over "all signals of the design" — the
    unit the paper's tables are reports over.

    The registry is engineered for the simulation hot path: entries live
    in a dense array in declaration order with a hash index by name
    (O(1) {!find}, duplicate declarations rejected at {!register} time),
    every typed entry caches a compiled quantizer (see
    {!Fixpt.Quantize.compile}) so assignment never re-derives code
    bounds or the step, and staged register writes are tracked in a
    dirty list so {!tick} touches only the signals actually written this
    cycle. *)

type kind =
  | Comb  (** the paper's [sig]: assignment takes effect immediately *)
  | Registered
      (** the paper's [reg]: assignment is staged and committed by the
          next clock tick; reads see the pre-tick value *)

(** What simulation does when an [Error]-mode type overflows (§2.1: "The
    latter produces an error message during simulation in case of
    overflow"). *)
type overflow_policy =
  | Count  (** record silently; reports show the count *)
  | Warn  (** log a warning (first few per signal) and record *)
  | Raise  (** abort simulation with {!Overflow} *)
  | Collect
      (** degraded-mode {!Raise}: record a structured {!fault_record}
          and keep simulating — the crash becomes a diagnostic *)

exception Overflow of { signal : string; value : float; time : int }

let () =
  Printexc.register_printer (function
    | Overflow { signal; value; time } ->
        Some
          (Printf.sprintf "Sim.Env.Overflow: signal %S value %g at cycle %d"
             signal value time)
    | _ -> None)

(** One collected overflow under the {!Collect} policy: which signal
    received which out-of-range raw value at which cycle. *)
type fault_record = { f_signal : string; f_value : float; f_time : int }

(** The simulation values of one signal: current committed fixed/float
    pair plus the staged pair of registered signals.  A dedicated
    all-float record (flat representation), so the per-sample stores of
    {!Signal.assign}/{!stage}/{!tick} mutate fields without boxing. *)
type vals = {
  mutable fx : float;
  mutable fl : float;
  mutable next_fx : float;
  mutable next_fl : float;
}

type entry = {
  env : t;  (** owning environment (for clocking, RNG, overflow policy) *)
  name : string;
  id : int;
  kind : kind;
  mutable dtype : Fixpt.Dtype.t option;  (** [None] = floating-point *)
  mutable quant : Fixpt.Quantize.compiled option;
      (** compiled form of [dtype]; kept in sync by {!set_entry_dtype} *)
  v : vals;  (** committed and staged simulation values *)
  mutable staged : bool;
  mutable in_dirty : bool;  (** already on the env's dirty list *)
  (* monitoring state *)
  range_stat : Stats.Running.t;  (** observed ideal values (stat-based) *)
  range_prop : float array;
      (** accumulated propagated range, an {!Interval.Row} interval at
          offset 0 (empty until the first assignment) *)
  mutable explicit_range : Interval.t option;  (** [range()] annotation *)
  mutable error_inject : float option;
      (** [error(h)] annotation: produced error overruled by U(−h, h) *)
  err : Stats.Err_stats.t;
  mutable grid_lsb : int option;
      (** finest LSB position needed to represent the assigned ideal
          values exactly ([None] until a nonzero value is seen) *)
  mutable n_assign : int;
  mutable n_access : int;
  mutable n_overflow : int;
  mutable last_overflow : float option;  (** raw value of last overflow *)
}

and t = {
  mutable entries : entry array;  (** declaration order, dense prefix *)
  mutable n_entries : int;
  by_name : (string, entry) Hashtbl.t;
  mutable dirty : entry array;  (** entries with a staged write *)
  mutable n_dirty : int;
  mutable time : int;
  seed : int;  (** creation seed — [reset] rewinds [rng] to it *)
  rng : Stats.Rng.t;
  mutable policy : overflow_policy;
  mutable warned : int;  (** warnings already emitted under [Warn] *)
  mutable reset_hooks : (unit -> unit) list;
      (** newest first; run after every [reset] in registration order:
          the "constructor initialization" of the paper's listings
          (coefficient loading etc.) that every fresh simulation
          re-executes *)
  mutable sink : Trace.Sink.t;
      (** observability sink; {!Trace.Sink.null} (the default) keeps the
          hot path down to one physical-equality guard per assignment *)
  mutable collected : fault_record list;
      (** overflows recorded under {!Collect}, newest first *)
  mutable injector : (entry -> float -> float) option;
      (** post-quantization value transform applied by {!Signal.assign}
          — the fault-injection hook ([lib/fault]); [None] (the
          default) keeps the hot path down to one match per assignment *)
  row : float array;
      (** the assignment path's float row (see {!monitor_row}) *)
  scratch : Fixpt.Quantize.scratch;  (** the assignment cast's scratch *)
}

let src = Logs.Src.create "fixrefine.sim" ~doc:"fixed-point simulation engine"

module Log = (val Logs.src_log src)

(* Own per environment, never shared: sweep workers run environments
   on several domains at once. *)
let row_slots = 6

let create ?(seed = 0x51CA5) ?(policy = Count) () =
  {
    entries = [||];
    n_entries = 0;
    by_name = Hashtbl.create 64;
    dirty = [||];
    n_dirty = 0;
    time = 0;
    seed;
    rng = Stats.Rng.create ~seed;
    policy;
    warned = 0;
    reset_hooks = [];
    sink = Trace.Sink.null;
    collected = [];
    injector = None;
    row = Array.make row_slots 0.0;
    scratch = Fixpt.Quantize.create_scratch ();
  }

(** Register an initialization action, run now and again after every
    {!reset}. *)
let at_reset t f =
  (* prepend (O(1)); [reset] replays in registration order *)
  t.reset_hooks <- f :: t.reset_hooks;
  f ()

let time t = t.time
let rng t = t.rng
let monitor_row t = t.row
let scratch t = t.scratch
let set_policy t p = t.policy <- p

(** Attach an observability sink.  Registration events are replayed for
    every signal already in the registry, so the sink's id→name map is
    complete whatever the attachment order.  One sink per environment;
    fan out with {!Trace.Sink.tee}. *)
let set_sink t s =
  t.sink <- s;
  if not (Trace.Sink.is_null s) then
    for i = 0 to t.n_entries - 1 do
      let e = t.entries.(i) in
      s.Trace.Sink.on_register ~id:e.id ~name:e.name
    done

let clear_sink t = t.sink <- Trace.Sink.null
let sink t = t.sink

(** Arm the fault-injection hook: [f entry fx'] maps every
    post-quantization value before it is stored or staged.  One injector
    per environment (the fault layer composes schedules itself); [f]
    must be deterministic in [(entry, time)] for replayability. *)
let set_injector t f = t.injector <- Some f

let clear_injector t = t.injector <- None
let injector t = t.injector

(** Faults collected under the {!Collect} policy, in chronological
    order. *)
let collected_faults t = List.rev t.collected

let collected_count t = List.length t.collected

(** Retype an entry, rebuilding its compiled quantizer (the refinement
    flow rewrites types between iterations). *)
let set_entry_dtype e dtype =
  e.dtype <- dtype;
  e.quant <- Option.map Fixpt.Quantize.of_dtype dtype

let register t ~name ~kind ~dtype =
  if Hashtbl.mem t.by_name name then
    invalid_arg (Printf.sprintf "Env.register: duplicate signal name %S" name);
  let e =
    {
      env = t;
      name;
      id = t.n_entries;
      kind;
      dtype;
      quant = Option.map Fixpt.Quantize.of_dtype dtype;
      v = { fx = 0.0; fl = 0.0; next_fx = 0.0; next_fl = 0.0 };
      staged = false;
      in_dirty = false;
      range_stat = Stats.Running.create ();
      range_prop = [| Float.infinity; Float.neg_infinity |];
      explicit_range = None;
      error_inject = None;
      err = Stats.Err_stats.create ();
      grid_lsb = None;
      n_assign = 0;
      n_access = 0;
      n_overflow = 0;
      last_overflow = None;
    }
  in
  let cap = Array.length t.entries in
  if t.n_entries = cap then begin
    let grown = Array.make (max 16 (2 * cap)) e in
    Array.blit t.entries 0 grown 0 cap;
    t.entries <- grown
  end;
  t.entries.(t.n_entries) <- e;
  t.n_entries <- t.n_entries + 1;
  Hashtbl.add t.by_name name e;
  if t.sink != Trace.Sink.null then
    t.sink.Trace.Sink.on_register ~id:e.id ~name:e.name;
  e

(** Signals in declaration order — the order the paper's tables use. *)
let signals t = Array.to_list (Array.sub t.entries 0 t.n_entries)

let find t name = Hashtbl.find_opt t.by_name name

let find_exn t name =
  match find t name with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Env.find_exn: no signal %S" name)

let record_overflow t e raw =
  e.n_overflow <- e.n_overflow + 1;
  e.last_overflow <- Some raw;
  match t.policy with
  | Count -> ()
  | Warn ->
      if t.warned < 20 then begin
        t.warned <- t.warned + 1;
        Log.warn (fun m ->
            m "overflow on %s at t=%d: %g exceeds %s" e.name t.time raw
              (match e.dtype with
              | Some dt -> Fixpt.Dtype.to_string dt
              | None -> "<float>"))
      end
  | Raise -> raise (Overflow { signal = e.name; value = raw; time = t.time })
  | Collect ->
      t.collected <-
        { f_signal = e.name; f_value = raw; f_time = t.time } :: t.collected;
      if t.sink != Trace.Sink.null then
        t.sink.Trace.Sink.on_fault ~id:e.id ~time:t.time ~kind:"collect"

(** Mark the register write in [e.v.next_fx]/[next_fl] staged for the
    next {!tick}, tracking the entry on the environment's dirty list
    (first write this cycle only). *)
let stage t e =
  e.staged <- true;
  if not e.in_dirty then begin
    e.in_dirty <- true;
    let cap = Array.length t.dirty in
    if t.n_dirty = cap then begin
      let grown = Array.make (max 16 (2 * cap)) e in
      Array.blit t.dirty 0 grown 0 cap;
      t.dirty <- grown
    end;
    t.dirty.(t.n_dirty) <- e;
    t.n_dirty <- t.n_dirty + 1
  end

(** Commit all staged register writes — one clock tick.  Only entries on
    the dirty list (written since the previous tick) are touched;
    registered signals without a staged write hold their value. *)
let tick t =
  for i = 0 to t.n_dirty - 1 do
    let e = t.dirty.(i) in
    if e.staged then begin
      e.v.fx <- e.v.next_fx;
      e.v.fl <- e.v.next_fl;
      e.staged <- false
    end;
    e.in_dirty <- false
  done;
  t.n_dirty <- 0;
  t.time <- t.time + 1

(** Reset dynamic state (values, staging, time) but keep declarations and
    annotations, and clear the monitoring statistics.  Used between
    refinement iterations.

    The environment RNG is rewound to the creation seed ([reseed:true],
    the default) so back-to-back runs consume identical noise streams —
    iteration 2 of the refinement flow sees the same stimuli as
    iteration 1.  Pass [~reseed:false] to keep the continuing stream
    (e.g. Monte-Carlo sweeps that want fresh noise per run). *)
let reset ?(reseed = true) t =
  for i = 0 to t.n_entries - 1 do
    let e = t.entries.(i) in
    e.v.fx <- 0.0;
    e.v.fl <- 0.0;
    e.v.next_fx <- 0.0;
    e.v.next_fl <- 0.0;
    e.staged <- false;
    e.in_dirty <- false;
    Stats.Running.reset e.range_stat;
    Interval.Row.set_empty e.range_prop 0;
    Stats.Err_stats.reset e.err;
    e.grid_lsb <- None;
    e.n_assign <- 0;
    e.n_access <- 0;
    e.n_overflow <- 0;
    e.last_overflow <- None
  done;
  t.n_dirty <- 0;
  t.time <- 0;
  t.warned <- 0;
  t.collected <- [];
  if reseed then Stats.Rng.reseed t.rng ~seed:t.seed;
  (* reseed precedes the hooks: a hook's [Signal.init] may consume the
     RNG through an [error()] injection *)
  List.iter (fun f -> f ()) (List.rev t.reset_hooks)

(* --- snapshot / restore ------------------------------------------------ *)

(** Per-entry slice of a {!snapshot}: the refinement-relevant
    configuration of one signal (declared type and annotations), keyed
    by name for shape validation at restore time. *)
type entry_snapshot = {
  s_name : string;
  s_dtype : Fixpt.Dtype.t option;
  s_range : Interval.t option;
  s_error : float option;
}

type snapshot = {
  s_entries : entry_snapshot array;  (** declaration order *)
  s_policy : overflow_policy;
}

let snapshot t =
  {
    s_entries =
      Array.init t.n_entries (fun i ->
          let e = t.entries.(i) in
          {
            s_name = e.name;
            s_dtype = e.dtype;
            s_range = e.explicit_range;
            s_error = e.error_inject;
          });
    s_policy = t.policy;
  }

let restore_into s t =
  if Array.length s.s_entries <> t.n_entries then
    invalid_arg
      (Printf.sprintf
         "Env.restore_into: snapshot has %d signals, environment has %d"
         (Array.length s.s_entries) t.n_entries);
  Array.iteri
    (fun i es ->
      let e = t.entries.(i) in
      if not (String.equal e.name es.s_name) then
        invalid_arg
          (Printf.sprintf
             "Env.restore_into: signal %d is %S in the snapshot but %S in \
              the environment"
             i es.s_name e.name);
      (* the compiled quantizer is rebuilt only on an actual type change *)
      if e.dtype != es.s_dtype then set_entry_dtype e es.s_dtype;
      e.explicit_range <- es.s_range;
      e.error_inject <- es.s_error)
    s.s_entries;
  t.policy <- s.s_policy;
  reset t
