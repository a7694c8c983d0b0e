(** The content-addressed evaluation store — persistent memoization of
    candidate evaluations across sweeps, processes and daemon jobs.

    A cache maps opaque string keys (in practice the MD5 hex digests of
    {!Refine.Eval.cache_key}) to opaque string payloads (in practice
    {!Codec.encode}d metrics).  The store itself imposes no meaning on
    either: it is a durable [(string → string)] table with bounded
    size, crash-tolerant persistence, and domain-safe concurrent
    access.

    {2 Disk layout}

    When created with [?dir], every entry is one file
    [<key>.entry] under that directory, written by
    {!Store.Durable.write_record} in the one record frame with magic
    [fxcache2].  A file the frame's checked reader refuses — a crashed
    writer, a filled disk, a decayed sector, a hand-edited entry — is
    {e corrupt}: it is deleted, counted in {!stats}, and treated as a
    miss (healed on read, never served as truth).  A later insert under
    the same key simply rewrites it.  {!scrub} runs the same check over
    every entry file eagerly.

    {2 Concurrency}

    All operations take an internal mutex, so one cache value may be
    shared by every worker domain of a {!Sweep.Pool} run and every
    connection thread of a {!Daemon} simultaneously.  The mutex guards
    the in-memory index.  Disk writes go through
    {!Store.Durable.write_atomic}: each writer fills its own uniquely
    named temp file and renames it into place, so two processes
    sharing a directory never publish a torn entry (last-writer-wins
    on identical keys is harmless — payloads under one key are
    identical by construction).

    {2 Eviction}

    A bounded cache evicts by CLOCK: the ring is [order], oldest slot
    at the head.  A hit adds one reference credit to its entry, up to
    [max_credit]; the eviction scan pops the head, and an entry with
    credit spends one and goes back to the tail, while one without is
    evicted (its file too).  Keys that come back — the low seeds every
    [--seeds N] job repeats — thereby outlive a one-off key inserted
    before them.  Credits live in memory only: entries adopted from
    disk start at zero. *)

type stats = {
  hits : int;
  misses : int;
  inserts : int;
  evictions : int;
  corrupt : int;
  entries : int;
}

(* A slot in [order] is live only while [tbl] maps its key to this very
   record: a key dropped by [scrub] and inserted again gets a new
   record, so its old slot is skipped instead of evicting (or granting
   a second chance to) the fresh entry. *)
type entry = { key : string; payload : string; mutable credit : int }

type t = {
  mutex : Mutex.t;
  tbl : (string, entry) Hashtbl.t;
  order : entry Queue.t;  (** the CLOCK ring, oldest slot first *)
  dir : string option;
  max_entries : int option;
  mutable hits : int;
  mutable misses : int;
  mutable inserts : int;
  mutable evictions : int;
  mutable corrupt : int;
}

(* Pre-CRC [fxcache1] entries fail the frame's magic check and are
   invalidated like any other damaged file. *)
let magic = "fxcache2"

let entry_path dir key = Filename.concat dir (key ^ ".entry")

(* The saturation point of a hit's reference credit: an entry survives
   at most this many eviction passes over it without a further hit. *)
let max_credit = 3

(* Locked context assumed for everything below this point. *)

let is_live t e =
  match Hashtbl.find_opt t.tbl e.key with Some e' -> e' == e | None -> false

(* Terminates: every pass over a live slot spends one of at most
   [max_credit] credits or evicts, and stale slots are dropped. *)
let evict_over_limit t =
  match t.max_entries with
  | None -> ()
  | Some limit ->
      while Hashtbl.length t.tbl > limit && not (Queue.is_empty t.order) do
        let e = Queue.pop t.order in
        if is_live t e then
          if e.credit > 0 then begin
            e.credit <- e.credit - 1;
            Queue.push e t.order
          end
          else begin
            Hashtbl.remove t.tbl e.key;
            t.evictions <- t.evictions + 1;
            match t.dir with
            | Some dir -> (
                try Sys.remove (entry_path dir e.key) with Sys_error _ -> ())
            | None -> ()
          end
      done

(* A new entry starts without credit, at the tail of the ring. *)
let add t key payload =
  let e = { key; payload; credit = 0 } in
  Hashtbl.replace t.tbl key e;
  Queue.push e t.order

let remove_corrupt t path =
  (try Sys.remove path with Sys_error _ -> ());
  t.corrupt <- t.corrupt + 1

(* Adopt an entry discovered on disk (load scan, or a miss that finds a
   file another process wrote).  Corrupt files are deleted and counted. *)
let adopt_from_disk t dir key =
  let path = entry_path dir key in
  if not (Sys.file_exists path) then None
  else
    match Store.Durable.read_record ~magic path with
    | Some payload ->
        if not (Hashtbl.mem t.tbl key) then begin
          add t key payload;
          evict_over_limit t
        end;
        Some payload
    | None ->
        remove_corrupt t path;
        None

(* Keys become file names; anything outside the safe alphabet stays
   memory-only rather than risking path tricks or unportable names. *)
let load t dir =
  List.iter
    (fun name ->
      match Filename.chop_suffix_opt ~suffix:".entry" name with
      | Some key when Store.Durable.is_safe_name key ->
          ignore (adopt_from_disk t dir key)
      | _ -> ())
    (Store.Durable.readdir_sorted dir)

let create ?dir ?max_entries () =
  (match max_entries with
  | Some m when m < 1 -> invalid_arg "Serve.Cache.create: max_entries < 1"
  | _ -> ());
  let t =
    {
      mutex = Mutex.create ();
      tbl = Hashtbl.create 256;
      order = Queue.create ();
      dir;
      max_entries;
      hits = 0;
      misses = 0;
      inserts = 0;
      evictions = 0;
      corrupt = 0;
    }
  in
  (match dir with
  | Some d ->
      Store.Durable.mkdir_p d;
      load t d
  | None -> ());
  t

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let lookup t key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some e ->
          t.hits <- t.hits + 1;
          e.credit <- min max_credit (e.credit + 1);
          Some e.payload
      | None -> (
          let disk =
            match t.dir with
            | Some dir when Store.Durable.is_safe_name key ->
                adopt_from_disk t dir key
            | _ -> None
          in
          match disk with
          | Some payload ->
              t.hits <- t.hits + 1;
              Some payload
          | None ->
              t.misses <- t.misses + 1;
              None))

let insert t key payload =
  with_lock t (fun () ->
      if not (Hashtbl.mem t.tbl key) then begin
        add t key payload;
        t.inserts <- t.inserts + 1;
        (match t.dir with
        | Some dir when Store.Durable.is_safe_name key -> (
            try
              Store.Durable.write_record ~magic (entry_path dir key) payload
            with Sys_error _ | Unix.Unix_error _ -> ())
        | _ -> ());
        evict_over_limit t
      end)

let stats t =
  with_lock t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        inserts = t.inserts;
        evictions = t.evictions;
        corrupt = t.corrupt;
        entries = Hashtbl.length t.tbl;
      })

let entry_count t = with_lock t (fun () -> Hashtbl.length t.tbl)

type scrub = { scanned : int; ok : int; healed : int }

(* Full-directory integrity pass: re-read every [*.entry] file from
   disk (deliberately ignoring the in-memory copy — the point is to
   catch decay that happened {e after} load) through the checked frame.
   A failing file is deleted, dropped from the memory index, and
   counted both here and in [stats.corrupt], so the next lookup of its
   key is a clean miss. *)
let scrub t =
  with_lock t (fun () ->
      match t.dir with
      | None -> { scanned = 0; ok = 0; healed = 0 }
      | Some dir ->
          List.fold_left
            (fun acc name ->
              match Filename.chop_suffix_opt ~suffix:".entry" name with
              | None -> acc
              | Some key -> (
                  let path = Filename.concat dir name in
                  match Store.Durable.read_record ~magic path with
                  | Some _ -> { acc with scanned = acc.scanned + 1; ok = acc.ok + 1 }
                  | None ->
                      remove_corrupt t path;
                      Hashtbl.remove t.tbl key;
                      { acc with scanned = acc.scanned + 1; healed = acc.healed + 1 }))
            { scanned = 0; ok = 0; healed = 0 }
            (Store.Durable.readdir_sorted dir))

let pp_stats ppf s =
  Format.fprintf ppf
    "%d entries, %d hits, %d misses, %d inserts, %d evictions, %d corrupt"
    s.entries s.hits s.misses s.inserts s.evictions s.corrupt
