(** The daemon's job protocol: typed requests/responses and their line
    codecs — one flat {!Trace.Json} object per line.

    A client connection carries a sequence of independent requests;
    every request names an [id] the daemon echoes in its response, so a
    client multiplexing jobs can correlate them.  The sweep job mirrors
    the [fxrefine sweep] surface (workload and strategy by name, the
    grid/bisect parameters, jobs/budget) plus a wall-clock [timeout_s]
    that the daemon checks between waves. *)

type sweep_params = {
  workload : string;
  strategy : string;  (** grid | bisect | pareto *)
  f_min : int;
  f_max : int;
  seeds : int;  (** stimulus seeds 0..N-1, like the CLI *)
  jobs : int;
  budget : int option;
  target_db : float;  (** bisect's SQNR target *)
  timeout_s : float option;
}

type request =
  | Ping of { id : string }
  | Stats of { id : string }
  | Shutdown of { id : string }
  | Sweep of { id : string; params : sweep_params }

type response =
  | Pong of { id : string }
  | Stats_reply of { id : string; stats : Cache.stats }
  | Bye of { id : string }
  | Report of { id : string; report : string; hits : int; misses : int }
  | Error of { id : string; message : string }
  | Busy of { id : string; active : int; limit : int }
      (** structured backpressure: the daemon is at its connection
          limit; retry later (no request was admitted) *)

(* --- the wave-journal key ------------------------------------------------ *)

let checkpoint_key p =
  Sweep.Checkpoint.sweep_key ~workload:p.workload ~strategy:p.strategy
    ~context:(Codec.context ())
    [
      ("f_min", string_of_int p.f_min);
      ("f_max", string_of_int p.f_max);
      ("seeds", string_of_int p.seeds);
      ( "budget",
        match p.budget with Some b -> string_of_int b | None -> "none" );
      ("target_db", Printf.sprintf "%h" p.target_db);
    ]

(* --- validation ---------------------------------------------------------- *)

let sweep_of_params ?(strategies = [ "grid"; "bisect"; "pareto" ]) p =
  match Sweep.Workload.find p.workload with
  | None -> Result.Error (Printf.sprintf "unknown workload %S" p.workload)
  | Some _ when p.f_min > p.f_max -> Result.Error "f_min > f_max"
  | Some _ when p.seeds < 1 -> Result.Error "seeds < 1"
  | Some _ when p.jobs < 1 -> Result.Error "jobs < 1"
  | Some _ when Option.fold ~none:false ~some:(fun b -> b < 1) p.budget ->
      Result.Error "budget < 1"
  | Some _ when not (Float.is_finite p.target_db) ->
      Result.Error "target_db is not a finite number"
  | Some _
    when Option.fold ~none:false
           ~some:(fun t -> not (t > 0.0 && Float.is_finite t))
           p.timeout_s ->
      Result.Error "timeout_s is not a positive finite number"
  | Some workload -> (
      let specs = workload.Sweep.Workload.specs in
      let f_min = p.f_min and f_max = p.f_max in
      let seeds = List.init p.seeds Fun.id in
      let allowed s = List.mem s strategies in
      match p.strategy with
      | "grid" when allowed "grid" ->
          Ok (workload, Sweep.Generator.grid ~specs ~f_min ~f_max ~seeds)
      | "bisect" when allowed "bisect" ->
          Ok
            ( workload,
              Sweep.Generator.bisect ~specs ~f_min ~f_max
                ~target_db:p.target_db ~seeds )
      | "pareto" when allowed "pareto" ->
          Ok (workload, Sweep.Generator.pareto ~specs ~f_min ~f_max ~seeds ())
      | s ->
          Result.Error
            (Printf.sprintf "unknown strategy %S (%s)" s
               (String.concat "|" strategies)))

(* --- rendering ---------------------------------------------------------- *)

module J = Trace.Json

let request_to_line = function
  | Ping { id } ->
      J.object_lit [ ("op", J.String "ping"); ("id", J.String id) ]
  | Stats { id } ->
      J.object_lit [ ("op", J.String "stats"); ("id", J.String id) ]
  | Shutdown { id } ->
      J.object_lit [ ("op", J.String "shutdown"); ("id", J.String id) ]
  | Sweep { id; params = p } ->
      J.object_lit
        ([
           ("op", J.String "sweep");
           ("id", J.String id);
           ("workload", J.String p.workload);
           ("strategy", J.String p.strategy);
           ("f_min", J.Int p.f_min);
           ("f_max", J.Int p.f_max);
           ("seeds", J.Int p.seeds);
           ("jobs", J.Int p.jobs);
           ("target_db", J.Float p.target_db);
         ]
        @ (match p.budget with
          | Some b -> [ ("budget", J.Int b) ]
          | None -> [])
        @
        match p.timeout_s with
        | Some t -> [ ("timeout_s", J.Float t) ]
        | None -> [])

let response_to_line = function
  | Pong { id } ->
      J.object_lit [ ("op", J.String "pong"); ("id", J.String id) ]
  | Stats_reply { id; stats = s } ->
      J.object_lit
        [
          ("op", J.String "stats");
          ("id", J.String id);
          ("hits", J.Int s.Cache.hits);
          ("misses", J.Int s.Cache.misses);
          ("inserts", J.Int s.Cache.inserts);
          ("evictions", J.Int s.Cache.evictions);
          ("corrupt", J.Int s.Cache.corrupt);
          ("entries", J.Int s.Cache.entries);
        ]
  | Bye { id } ->
      J.object_lit [ ("op", J.String "bye"); ("id", J.String id) ]
  | Report { id; report; hits; misses } ->
      J.object_lit
        [
          ("op", J.String "report");
          ("id", J.String id);
          ("hits", J.Int hits);
          ("misses", J.Int misses);
          ("report", J.String report);
        ]
  | Error { id; message } ->
      J.object_lit
        [
          ("op", J.String "error");
          ("id", J.String id);
          ("message", J.String message);
        ]
  | Busy { id; active; limit } ->
      J.object_lit
        [
          ("op", J.String "busy");
          ("id", J.String id);
          ("active", J.Int active);
          ("limit", J.Int limit);
        ]

(* --- parsing ------------------------------------------------------------ *)

let ( let* ) = Option.bind

(* An optional field: [Some None] when absent, [Some (Some v)] when
   [get] reads it, and [None] (no request at all) when it is present
   with another type — a default must not stand in for a bad value. *)
let optional get fields k =
  if List.mem_assoc k fields then Option.map Option.some (get fields k)
  else Some None

(* Every field is one [op] defines: a misspelled optional field must
   not silently take its default. *)
let only names fields =
  let defined (k, _) = k = "op" || k = "id" || List.mem k names in
  if List.for_all defined fields then Some () else None

let sweep_fields =
  [
    "workload"; "strategy"; "f_min"; "f_max"; "seeds"; "jobs"; "budget";
    "target_db"; "timeout_s";
  ]

let request_of_line line =
  let* fields = Result.to_option (J.parse_object line) in
  let* op = J.get_string fields "op" in
  let* id = optional J.get_string fields "id" in
  let id = Option.value id ~default:"" in
  match op with
  | "ping" ->
      let* () = only [] fields in
      Some (Ping { id })
  | "stats" ->
      let* () = only [] fields in
      Some (Stats { id })
  | "shutdown" ->
      let* () = only [] fields in
      Some (Shutdown { id })
  | "sweep" ->
      let* () = only sweep_fields fields in
      let* workload = J.get_string fields "workload" in
      let* strategy = J.get_string fields "strategy" in
      let* f_min = J.get_int fields "f_min" in
      let* f_max = J.get_int fields "f_max" in
      let* seeds = J.get_int fields "seeds" in
      let* jobs = optional J.get_int fields "jobs" in
      let* budget = optional J.get_int fields "budget" in
      let* target_db = optional J.get_float fields "target_db" in
      let* timeout_s = optional J.get_float fields "timeout_s" in
      let jobs = Option.value jobs ~default:1 in
      let target_db = Option.value target_db ~default:40.0 in
      Some
        (Sweep
           {
             id;
             params =
               {
                 workload;
                 strategy;
                 f_min;
                 f_max;
                 seeds;
                 jobs;
                 budget;
                 target_db;
                 timeout_s;
               };
           })
  | _ -> None

let response_of_line line =
  let* fields = Result.to_option (J.parse_object line) in
  let* op = J.get_string fields "op" in
  let* id = optional J.get_string fields "id" in
  let id = Option.value id ~default:"" in
  match op with
  | "pong" -> Some (Pong { id })
  | "bye" -> Some (Bye { id })
  | "stats" ->
      let* hits = J.get_int fields "hits" in
      let* misses = J.get_int fields "misses" in
      let* inserts = J.get_int fields "inserts" in
      let* evictions = J.get_int fields "evictions" in
      let* corrupt = J.get_int fields "corrupt" in
      let* entries = J.get_int fields "entries" in
      Some
        (Stats_reply
           {
             id;
             stats =
               { Cache.hits; misses; inserts; evictions; corrupt; entries };
           })
  | "report" ->
      let* report = J.get_string fields "report" in
      let* hits = J.get_int fields "hits" in
      let* misses = J.get_int fields "misses" in
      Some (Report { id; report; hits; misses })
  | "error" ->
      let* message = J.get_string fields "message" in
      Some (Error { id; message })
  | "busy" ->
      let* active = J.get_int fields "active" in
      let* limit = J.get_int fields "limit" in
      Some (Busy { id; active; limit })
  | _ -> None
