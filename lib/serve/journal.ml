(** Write-ahead job journal for the daemon — see the .mli for the
    contract.

    One file per in-flight job under the journal directory, each in the
    one record frame of {!Store.Durable.write_record} (magic
    [fxintent2]):

    - [job-<name>.intent] — the write-ahead record, created {e before}
      the job starts executing; its payload is
      {v <attempts>\n<request line>\n v}
    - [job-<name>.quarantined] — the same payload plus a
      [reason <escaped>] line, written when recovery gives up on the
      job.

    Every write is atomic and durable (temp + [fsync] + rename +
    directory [fsync]), so a SIGKILL at any instant leaves each job in
    exactly one state: absent (never admitted or already completed),
    intent (must be re-run or quarantined by the next daemon), or
    quarantined.  Nothing is ever silently forgotten. *)

type entry = { name : string; attempts : int; line : string }
type t = { dir : string }

let magic = "fxintent2"
let dir t = t.dir

let create ~dir =
  Store.Durable.mkdir_p dir;
  { dir }

(* Unique within the journal across restarts: the pid distinguishes
   daemon generations, the counter distinguishes jobs within one.  The
   counter is the process's, not the journal's: two journals over one
   directory in one process must not hand out the same name. *)
let counter = Atomic.make 0

let fresh_name (_ : t) =
  Printf.sprintf "%d-%06d" (Unix.getpid ()) (Atomic.fetch_and_add counter 1)

let intent_path t name = Filename.concat t.dir ("job-" ^ name ^ ".intent")

let quarantine_path t name =
  Filename.concat t.dir ("job-" ^ name ^ ".quarantined")

let render e = Printf.sprintf "%d\n%s\n" e.attempts e.line

let record_intent t e =
  if not (Store.Durable.is_safe_name e.name) then
    invalid_arg "Serve.Journal.record_intent: unsafe job name";
  Store.Durable.write_record ~magic (intent_path t e.name) (render e)

let mark_done t ~name =
  (try Sys.remove (intent_path t name) with Sys_error _ -> ());
  Store.Durable.fsync_dir t.dir

let quarantine t e ~reason =
  Store.Durable.write_record ~magic (quarantine_path t e.name)
    (render e ^ Printf.sprintf "reason %S\n" reason);
  mark_done t ~name:e.name

let parse_intent ~name payload =
  match String.split_on_char '\n' payload with
  | [ attempts; line; "" ] -> (
      match int_of_string_opt attempts with
      | Some attempts when attempts >= 0 -> Some { name; attempts; line }
      | _ -> None)
  | _ -> None

let scan t ~suffix =
  List.filter_map
    (fun file ->
      match Filename.chop_suffix_opt ~suffix file with
      | Some base
        when String.length base > 4 && String.sub base 0 4 = "job-" ->
          let name = String.sub base 4 (String.length base - 4) in
          if Store.Durable.is_safe_name name then
            Some (name, Filename.concat t.dir file)
          else None
      | _ -> None)
    (Store.Durable.readdir_sorted t.dir)

(* Interrupted jobs, oldest first.  A torn, damaged, old-format or
   unparsable intent file is quarantined on the spot (reason recorded,
   raw bytes preserved) — never deleted, never re-run blind. *)
let pending t =
  List.filter_map
    (fun (name, path) ->
      match
        Option.bind (Store.Durable.read_record ~magic path) (parse_intent ~name)
      with
      | Some e -> Some e
      | None ->
          let raw = try Store.Durable.read_file path with Sys_error _ -> "" in
          quarantine t
            { name; attempts = 0; line = raw }
            ~reason:"unparsable intent record";
          None)
    (scan t ~suffix:".intent")

let quarantined t = List.map fst (scan t ~suffix:".quarantined")
