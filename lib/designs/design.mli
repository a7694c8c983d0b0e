(** One design of the catalogue: a monitored simulation environment
    with its seeded stimulus and one step function, which a full run,
    an observed run and flowgraph extraction all execute.

    Every consumer (the refinement flow, the conformance workloads, the
    sweep, the CLI, the paper experiments) builds a design through its
    module in this library and reads what it needs off this record.
    ['parts] carries the design's own handles (its block, the sent
    symbols, its output channels). *)

type 'parts t = {
  env : Sim.Env.t;
  probe : string;  (** the signal the design is scored at *)
  cycles : int;  (** clock cycles of one run *)
  step : int -> bool;
      (** [step i] runs clock cycle [i] of a run; [false] only on the
          idle cycles of a decimating design, whose probe then holds no
          new sample *)
  reset : unit -> unit;
      (** {!Sim.Env.reset}, then rewind the stimulus and clear the
          channels, so {!run} can repeat *)
  run : unit -> unit;  (** [cycles] steps *)
  watch : Sim.Signal.t list;  (** the signals a trace of a run samples *)
  parts : 'parts;
}

(** What a sweep instance needs beyond the design: the stimulus seed of
    the next [reset]/[run], and compiled-executor support. *)
type seeded = {
  set_seed : int -> unit;
  compiled : Refine.Eval.compiled_eval option;
}

(** [make env ~probe ~cycles ~step parts] — [rewind] runs after
    {!Sim.Env.reset} in [reset]; [run] is [cycles] calls of [step]
    under {!Sim.Engine.run}. *)
val make :
  Sim.Env.t ->
  probe:string ->
  cycles:int ->
  step:(int -> bool) ->
  ?rewind:(unit -> unit) ->
  ?watch:Sim.Signal.t list ->
  'parts ->
  'parts t

(** The refinement-flow view: [env], [reset], [run]. *)
val flow : _ t -> Refine.Flow.design

(** Record cycle 0 of the step body ({!Sim.Extract.graph}); it advances
    the design by one cycle. *)
val extract : ?outputs:string list -> _ t -> Sfg.Graph.t
