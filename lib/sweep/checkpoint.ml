(** Crash-safe wave journal for sweeps — see the .mli for the contract.

    One file per completed wave, [wave-%06d.wv] under [dir/key/],
    written by {!Store.Durable.write_record} in the one record frame
    (magic [fxwave2]).  The payload is a header line, then one line per
    candidate in wave order:

    {v
    <wave> <n-candidates> <md5 of the candidate list>
    ok "<escaped fxmetrics 1 payload>"     (an evaluated candidate)
    err <attempts> "<escaped message>"     (a quarantined one)
    v}

    The metrics payload is {!Store.Monitor}'s, the one the cache stores.
    The candidates themselves are not stored: a record replays only
    when the digest of the live wave's candidate list equals the
    recorded one.  A record the frame or the strict parser refuses
    (damage, an [fxwave1] file from before the frame) reads as "not
    journaled" and the wave is simply re-evaluated: corruption can cost
    time, never correctness. *)

type outcome = (Candidate.t * (Refine.Eval.metrics, string * int) result) list

type results = (Refine.Eval.metrics, string * int) result list

type t = {
  dir : string;  (** the keyed subdirectory holding the wave files *)
  journaled : (int, string * results) Hashtbl.t;
      (** wave -> (candidate digest, results in candidate order) *)
  mutable replayed_waves : int;
  mutable replayed_candidates : int;
}

let magic = "fxwave2"
let dir t = t.dir
let waves t = Hashtbl.length t.journaled
let replayed t = (t.replayed_waves, t.replayed_candidates)

let sweep_key ~workload ~strategy ~context params =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "{\"workload\":%S,\"strategy\":%S,\"context\":%S" workload
       strategy context);
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf ",%S:%S" k v))
    params;
  Buffer.add_char buf '}';
  Digest.to_hex (Digest.string (Buffer.contents buf))

let wave_file wave = Printf.sprintf "wave-%06d.wv" wave
let wave_path t wave = Filename.concat t.dir (wave_file wave)

(* --- the record ----------------------------------------------------------- *)

(* The candidate list rendered unambiguously — counts before lists,
   signal names escaped — and digested. *)
let digest_candidates (cs : Candidate.t list) =
  let buf = Buffer.create 512 in
  List.iter
    (fun (c : Candidate.t) ->
      Printf.bprintf buf "c %d %d %s %d\n" c.Candidate.id c.Candidate.stim_seed
        (match c.Candidate.uniform_f with
        | Some f -> string_of_int f
        | None -> "-")
        (List.length c.Candidate.assigns);
      List.iter
        (fun (a : Candidate.assign) ->
          Printf.bprintf buf "a %d %d %S\n" a.n a.f a.signal)
        c.Candidate.assigns)
    cs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let render ~wave ~digest (results : results) =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "%d %d %s\n" wave (List.length results) digest;
  List.iter
    (function
      | Ok m -> Printf.bprintf buf "ok %S\n" (Store.Monitor.encode m)
      | Error (msg, attempts) -> Printf.bprintf buf "err %d %S\n" attempts msg)
    results;
  Buffer.contents buf

let ( let* ) = Option.bind

let parse_result line =
  match
    if String.starts_with ~prefix:"ok " line then
      Scanf.sscanf line "ok %S%!" (fun p ->
          Option.map Result.ok (Store.Monitor.decode p))
    else
      Scanf.sscanf line "err %d %S%!" (fun attempts msg ->
          Some (Error (msg, attempts)))
  with
  | r -> r
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None

(* [None] on any deviation: a malformed header, a result count that
   disagrees with it, an unparsable line. *)
let parse_record payload =
  match String.split_on_char '\n' payload with
  | header :: lines -> (
      match String.split_on_char ' ' header with
      | [ wave; count; digest ] ->
          let* wave = int_of_string_opt wave in
          let* count = int_of_string_opt count in
          let rec go acc = function
            | [ "" ] when List.length acc = count -> Some (List.rev acc)
            | line :: rest ->
                let* r = parse_result line in
                go (r :: acc) rest
            | [] -> None
          in
          let* results = go [] lines in
          if wave >= 1 then Some (wave, (digest, results)) else None
      | _ -> None)
  | [] -> None

(* --- lifecycle ----------------------------------------------------------- *)

let is_wave_file name =
  String.length name > 5
  && String.sub name 0 5 = "wave-"
  && Filename.check_suffix name ".wv"

let load t =
  List.iter
    (fun name ->
      if is_wave_file name then
        match
          Option.bind
            (Store.Durable.read_record ~magic (Filename.concat t.dir name))
            parse_record
        with
        | Some (wave, record) -> Hashtbl.replace t.journaled wave record
        | None -> ())
    (Store.Durable.readdir_sorted t.dir)

(* Every wave file and temp file under [dir]; other files stay. *)
let remove_records dir =
  List.iter
    (fun name ->
      if is_wave_file name || Filename.check_suffix name ".tmp" then
        try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
    (Store.Durable.readdir_sorted dir)

let clear_journal dir =
  remove_records dir;
  Store.Durable.fsync_dir dir

let check_key fn key =
  if not (Store.Durable.is_safe_name key) then
    invalid_arg ("Sweep.Checkpoint." ^ fn ^ ": key is not a safe file name")

let create ?(resume = false) ~dir ~key () =
  check_key "create" key;
  let sub = Filename.concat dir key in
  Store.Durable.mkdir_p sub;
  let t =
    {
      dir = sub;
      journaled = Hashtbl.create 16;
      replayed_waves = 0;
      replayed_candidates = 0;
    }
  in
  if resume then load t else clear_journal sub;
  t

(* The records go first, so the [rmdir] finds the directory empty; a
   directory holding anything else stays. *)
let retire ~dir ~key =
  check_key "retire" key;
  let sub = Filename.concat dir key in
  if Sys.file_exists sub then begin
    remove_records sub;
    (try Sys.rmdir sub with Sys_error _ -> ());
    Store.Durable.fsync_dir dir
  end

(* --- the Pool-facing pair ------------------------------------------------ *)

let lookup t ~wave candidates =
  match Hashtbl.find_opt t.journaled wave with
  | Some (digest, results)
    when List.compare_lengths results candidates = 0
         && String.equal digest (digest_candidates candidates) ->
      t.replayed_waves <- t.replayed_waves + 1;
      t.replayed_candidates <- t.replayed_candidates + List.length results;
      Some (List.combine candidates results)
  | Some _ | None -> None

let record t ~wave (outcomes : outcome) =
  let digest = digest_candidates (List.map fst outcomes) in
  let results = List.map snd outcomes in
  Store.Durable.write_record ~magic (wave_path t wave)
    (render ~wave ~digest results);
  Hashtbl.replace t.journaled wave (digest, results)
