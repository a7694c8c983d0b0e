(** The event-sink interface of the observability layer.

    A sink is a flat record of callbacks the simulation hot path invokes
    at its monitored end points.  The contract with the hot path is:

    - {!null} is the disabled state.  The instrumentation site guards
      every emission with a single physical-equality test
      ([sink != Sink.null]) and computes the event arguments only inside
      the guarded branch, so a design with tracing disabled pays one
      pointer compare per assignment and allocates nothing — the
      property the null-sink smoke test holds it to and the
      benchmark's untraced passes measure.
    - Callbacks must not raise: an observer never changes simulation
      outcomes.  (The oracle's trace gate additionally checks that
      attaching a counting sink leaves the rendered sweep report
      byte-identical.)
    - [on_register] replays when a sink is attached to an environment
      that already has signals, so a sink always knows the id→name map
      regardless of attachment order.

    Event vocabulary (the paper's §4 monitors, per event instead of per
    run): every {!Sim.Signal.assign} emits [on_assign] with the produced
    difference error ε_p; every quantizer overflow additionally emits
    [on_overflow], distinguishing saturation from wrap-around; every
    injected or degraded-and-collected fault (the resilience layer of
    [lib/fault]) emits [on_fault] with a short machine-stable kind tag
    ("bitflip", "stim-nan", "force-overflow", "collect", …). *)

type t = {
  sink_name : string;  (** diagnostic label ("null", "counters", …) *)
  on_register : id:int -> name:string -> unit;
      (** a signal entered the registry (or was replayed at attach) *)
  on_assign : id:int -> time:int -> err:float -> quantized:bool -> rounded:bool -> unit;
      (** one assignment: cycle index, produced error [fl' - fx'],
          whether a dtype cast ran and whether it round-to-nearests *)
  on_overflow : id:int -> time:int -> raw:float -> saturating:bool -> unit;
      (** the cast overflowed on [raw]; [saturating] tells clamp from
          wrap-around *)
  on_fault : id:int -> time:int -> kind:string -> unit;
      (** a fault was injected into, or collected from, the signal;
          [kind] is a short stable tag of the fault class *)
}

let nop2 ~id:(_ : int) ~name:(_ : string) = ()

let nop_assign ~id:(_ : int) ~time:(_ : int) ~err:(_ : float)
    ~quantized:(_ : bool) ~rounded:(_ : bool) =
  ()

let nop_overflow ~id:(_ : int) ~time:(_ : int) ~raw:(_ : float)
    ~saturating:(_ : bool) =
  ()

let nop_fault ~id:(_ : int) ~time:(_ : int) ~kind:(_ : string) = ()

(** The disabled sink.  A single toplevel value: instrumentation sites
    compare against it {e physically}, so never rebuild an equivalent
    record and expect it to read as disabled. *)
let null =
  {
    sink_name = "null";
    on_register = nop2;
    on_assign = nop_assign;
    on_overflow = nop_overflow;
    on_fault = nop_fault;
  }

let is_null t = t == null

(** Fan one event stream out to two sinks ([a] first). *)
let tee a b =
  {
    sink_name = a.sink_name ^ "+" ^ b.sink_name;
    on_register =
      (fun ~id ~name ->
        a.on_register ~id ~name;
        b.on_register ~id ~name);
    on_assign =
      (fun ~id ~time ~err ~quantized ~rounded ->
        a.on_assign ~id ~time ~err ~quantized ~rounded;
        b.on_assign ~id ~time ~err ~quantized ~rounded);
    on_overflow =
      (fun ~id ~time ~raw ~saturating ->
        a.on_overflow ~id ~time ~raw ~saturating;
        b.on_overflow ~id ~time ~raw ~saturating);
    on_fault =
      (fun ~id ~time ~kind ->
        a.on_fault ~id ~time ~kind;
        b.on_fault ~id ~time ~kind);
  }
