(** Crash-safe wave journal for sweeps — see the .mli for the contract.

    One file per completed wave, [wave-%06d.wv] under [dir/key/],
    written atomically and durably (temp + [fsync] + rename + directory
    [fsync]).  A record stores the wave's candidates and their outcomes
    bit-exactly:

    {v
    fxwave1 <wave> <n-candidates>
    c <id> <stim-seed> <uniform-f|-> <n-assigns>
    a <n> <f> <signal>            (n-assigns lines)
    ok <sqnr|none> <bits> <ovf> <errmax>
    pv <none | raw floats>
    pe <none | raw floats>
        -- or, for a quarantined candidate --
    err <attempts> "<escaped message>"
    end
    v}

    Every float is a [%h] hex literal ([float_of_string] reverses it
    exactly) and the probe monitors travel through {!Stats.Running.raw}
    / {!Stats.Err_stats.raw}, the exact accumulator fields — both via
    {!Store.Monitor}, the codec {!Serve.Codec} builds its cache payload
    from too.  Decoding is strict: any
    deviation invalidates the whole wave file, which resume treats as
    "not journaled" and simply re-evaluates — corruption can cost time,
    never correctness. *)

type outcome = (Candidate.t * (Refine.Eval.metrics, string * int) result) list

type t = {
  dir : string;  (** the keyed subdirectory holding the wave files *)
  journaled : (int, outcome) Hashtbl.t;
  mutable replayed_waves : int;
  mutable replayed_candidates : int;
}

let magic = "fxwave1"
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

(* --- encoding ----------------------------------------------------------- *)

module M = Store.Monitor

let render_candidate buf (c : Candidate.t) =
  Buffer.add_string buf
    (Printf.sprintf "c %d %d %s %d\n" c.Candidate.id c.Candidate.stim_seed
       (match c.Candidate.uniform_f with
       | Some f -> string_of_int f
       | None -> "-")
       (List.length c.Candidate.assigns));
  List.iter
    (fun (a : Candidate.assign) ->
      Buffer.add_string buf (Printf.sprintf "a %d %d %s\n" a.n a.f a.signal))
    c.Candidate.assigns

let render_metrics buf (m : Refine.Eval.metrics) =
  if m.Refine.Eval.counters <> None then
    invalid_arg
      "Sweep.Checkpoint: counter-carrying metrics are not journalable";
  Printf.bprintf buf "ok %s %d %d %s\n%s\n%s\n"
    (M.opt_lit m.Refine.Eval.sqnr_db)
    m.Refine.Eval.total_bits m.Refine.Eval.overflow_count
    (M.float_lit m.Refine.Eval.probe_err_max)
    (M.pv_line m.Refine.Eval.probe_values)
    (M.pe_line m.Refine.Eval.probe_err)

let render ~wave (outcomes : outcome) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%s %d %d\n" magic wave (List.length outcomes));
  List.iter
    (fun (c, r) ->
      render_candidate buf c;
      match r with
      | Ok m -> render_metrics buf m
      | Error (msg, attempts) ->
          Buffer.add_string buf (Printf.sprintf "err %d %S\n" attempts msg))
    outcomes;
  Buffer.add_string buf "end\n";
  Buffer.contents buf

(* --- strict decoding ---------------------------------------------------- *)

let ( let* ) = Option.bind

let parse_assign line =
  match String.split_on_char ' ' line with
  | "a" :: n :: f :: (_ :: _ as rest) ->
      let* n = int_of_string_opt n in
      let* f = int_of_string_opt f in
      (* the signal name is everything after the third space, so a name
         containing spaces still round-trips *)
      Some { Candidate.signal = String.concat " " rest; n; f }
  | _ -> None

let parse_candidate lines =
  match lines with
  | head :: rest -> (
      match String.split_on_char ' ' head with
      | [ "c"; id; seed; uf; k ] ->
          let* id = int_of_string_opt id in
          let* stim_seed = int_of_string_opt seed in
          let* uniform_f =
            if String.equal uf "-" then Some None
            else
              match int_of_string_opt uf with
              | Some f -> Some (Some f)
              | None -> None
          in
          let* k = int_of_string_opt k in
          let* () = if k >= 0 then Some () else None in
          let rec take acc n ls =
            if n = 0 then Some (List.rev acc, ls)
            else
              match ls with
              | [] -> None
              | l :: ls ->
                  let* a = parse_assign l in
                  take (a :: acc) (n - 1) ls
          in
          let* assigns, rest = take [] k rest in
          Some ({ Candidate.id; assigns; stim_seed; uniform_f }, rest)
      | _ -> None)
  | [] -> None

let parse_metrics lines =
  match lines with
  | ok :: pv :: pe :: rest ->
      let* body = M.field ~label:"ok" ok in
      let* sqnr_db, total_bits, overflow_count, probe_err_max =
        match String.split_on_char ' ' body with
        | [ sqnr; bits; ovf; errmax ] ->
            let* sqnr_db = M.opt_of_lit sqnr in
            let* bits = int_of_string_opt bits in
            let* ovf = int_of_string_opt ovf in
            let* errmax = float_of_string_opt errmax in
            Some (sqnr_db, bits, ovf, errmax)
        | _ -> None
      in
      let* probe_values = M.pv_of_line pv in
      let* probe_err = M.pe_of_line pe in
      Some
        ( {
            Refine.Eval.sqnr_db;
            total_bits;
            overflow_count;
            probe_err_max;
            probe_values;
            probe_err;
            counters = None;
          },
          rest )
  | _ -> None

let parse_error line =
  match
    Scanf.sscanf line "err %d %S%!" (fun attempts msg -> (msg, attempts))
  with
  | r -> Some r
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None

(* Whole-file parse; [None] on any deviation (missing [end] marker,
   trailing garbage, count mismatch, unparsable line). *)
let parse_record raw =
  let lines = String.split_on_char '\n' raw in
  match lines with
  | header :: rest -> (
      let* wave, count =
        match String.split_on_char ' ' header with
        | [ m; wave; count ] when String.equal m magic ->
            let* wave = int_of_string_opt wave in
            let* count = int_of_string_opt count in
            if wave >= 1 && count >= 0 then Some (wave, count) else None
        | _ -> None
      in
      let rec go acc n lines =
        if n = 0 then
          match lines with
          | [ "end"; "" ] -> Some (List.rev acc)
          | _ -> None
        else
          let* c, lines = parse_candidate lines in
          match lines with
          | l :: more when String.length l >= 3 && String.sub l 0 3 = "err"
            ->
              let* msg, attempts = parse_error l in
              go ((c, Error (msg, attempts)) :: acc) (n - 1) more
          | lines ->
              let* m, lines = parse_metrics lines in
              go ((c, Ok m) :: acc) (n - 1) lines
      in
      match go [] count rest with
      | Some outcomes -> Some (wave, outcomes)
      | None -> None)
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
          parse_record (Store.Durable.read_file (Filename.concat t.dir name))
        with
        | Some (wave, outcomes) -> Hashtbl.replace t.journaled wave outcomes
        | None | (exception Sys_error _) -> ())
    (Store.Durable.readdir_sorted t.dir)

let clear_journal dir =
  List.iter
    (fun name ->
      if is_wave_file name || Filename.check_suffix name ".tmp" then
        try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
    (Store.Durable.readdir_sorted dir);
  Store.Durable.fsync_dir dir

let create ?(resume = false) ~dir ~key () =
  if not (Store.Durable.is_safe_name key) then
    invalid_arg "Sweep.Checkpoint.create: key is not a safe file name";
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

(* --- the Pool-facing pair ------------------------------------------------ *)

let candidates_match journaled (live : Candidate.t list) =
  List.length journaled = List.length live
  && List.for_all2 (fun (c, _) c' -> c = c') journaled live

let lookup t ~wave candidates =
  match Hashtbl.find_opt t.journaled wave with
  | Some outcomes when candidates_match outcomes candidates ->
      t.replayed_waves <- t.replayed_waves + 1;
      t.replayed_candidates <- t.replayed_candidates + List.length outcomes;
      Some outcomes
  | Some _ | None -> None

let record t ~wave (outcomes : outcome) =
  Store.Durable.write_atomic (wave_path t wave) (render ~wave outcomes);
  Hashtbl.replace t.journaled wave outcomes
