type 'parts t = {
  env : Sim.Env.t;
  probe : string;
  cycles : int;
  step : int -> bool;
  reset : unit -> unit;
  run : unit -> unit;
  watch : Sim.Signal.t list;
  parts : 'parts;
}

type seeded = {
  set_seed : int -> unit;
  compiled : Refine.Eval.compiled_eval option;
}

let make env ~probe ~cycles ~step ?(rewind = ignore) ?(watch = []) parts =
  let run () = Sim.Engine.run env ~cycles (fun c -> ignore (step c)) in
  let reset () =
    Sim.Env.reset env;
    rewind ()
  in
  { env; probe; cycles; step; reset; run; watch; parts }

let flow t = { Refine.Flow.env = t.env; reset = t.reset; run = t.run }

let extract ?outputs t =
  Sim.Extract.graph t.env ?outputs ~step:(fun () -> ignore (t.step 0)) ()
