(* Unit tests: the refinement-as-a-service layer — cache key hashing
   (injectivity on distinct canonical content, stability across runs),
   the bit-exact metrics codec, the persistent content-addressed store
   (cold/warm byte equality, CLOCK eviction against a list model,
   corrupted-entry recovery),
   the wire framing, and a daemon/client round trip over a real
   socket. *)

open Fixrefine

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

let scratch =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "fxserve-test-%d-%d" (Unix.getpid ()) !ctr)
    in
    (try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

(* --- cache keys ---------------------------------------------------------- *)

let key_of ?(design = "{\"nodes\": []}") ?(assigns = []) ?(probe = Some "out")
    ?(seed = 0) ?(cycles = 128) ?(context = "fxeval/test") () =
  Refine.Eval.cache_key ~design ~assigns ~probe ~seed ~cycles ~context

let test_key_stable_across_runs () =
  (* pin one digest: any drift silently invalidates every persisted
     cache in the wild, so it must be a conscious, visible change *)
  check string_t "pinned digest" "5c7b277267e492ef6b08f232e87f172f"
    (key_of ());
  check string_t "recomputation is identical" (key_of ()) (key_of ())

let test_key_sensitive_to_every_field () =
  let base = key_of () in
  let dt = Fixpt.Dtype.make "T" ~n:8 ~f:6 () in
  check bool_t "design changes key" true
    (base <> key_of ~design:"{\"nodes\": [1]}" ());
  check bool_t "assigns change key" true
    (base <> key_of ~assigns:[ ("x", dt) ] ());
  check bool_t "probe changes key" true (base <> key_of ~probe:None ());
  check bool_t "seed changes key" true (base <> key_of ~seed:1 ());
  check bool_t "cycles change key" true (base <> key_of ~cycles:256 ());
  check bool_t "context changes key" true
    (base <> key_of ~context:"fxeval/other" ())

(* Injectivity on distinct canonical JSON (up to MD5 collisions, which
   the generator cannot hit): distinct design strings must give
   distinct keys, and equal ones equal keys — across many random
   shapes, not just the handful above. *)
let prop_key_injective =
  QCheck2.Test.make ~name:"cache key injective on distinct canonical JSON"
    ~count:300
    QCheck2.Gen.(
      pair
        (pair small_nat (list_size (int_range 0 4) (int_range 0 100)))
        (pair small_nat (list_size (int_range 0 4) (int_range 0 100))))
    (fun ((s1, l1), (s2, l2)) ->
      let design (s, l) =
        Printf.sprintf "{\"seed\": %d, \"nodes\": [%s]}" s
          (String.concat ", " (List.map string_of_int l))
      in
      let d1 = design (s1, l1) and d2 = design (s2, l2) in
      let k1 = key_of ~design:d1 () and k2 = key_of ~design:d2 () in
      if String.equal d1 d2 then String.equal k1 k2
      else not (String.equal k1 k2))

(* --- codec --------------------------------------------------------------- *)

let gen_special_float =
  QCheck2.Gen.oneof
    [
      QCheck2.Gen.float;
      QCheck2.Gen.oneofl
        [ 0.0; -0.0; Float.infinity; Float.neg_infinity; 1e-310; 0.1 ];
    ]

let gen_metrics =
  QCheck2.Gen.(
    let* sqnr = option gen_special_float in
    let* bits = int_range 0 500 in
    let* ovf = int_range 0 10000 in
    let* errmax = gen_special_float in
    let* samples = list_size (int_range 0 20) gen_special_float in
    let* with_monitors = bool in
    let pv, pe =
      if with_monitors then begin
        let r = Stats.Running.create () in
        let e = Stats.Err_stats.create () in
        List.iter
          (fun v ->
            Stats.Running.add r v;
            Stats.Err_stats.record e ~consumed:(v /. 3.0) ~produced:v)
          samples;
        (Some r, Some e)
      end
      else (None, None)
    in
    return
      {
        Refine.Eval.sqnr_db = sqnr;
        total_bits = bits;
        overflow_count = ovf;
        probe_err_max = errmax;
        probe_values = pv;
        probe_err = pe;
        counters = None;
      })

let float_identical a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let running_identical a b =
  let ra = Stats.Running.raw a and rb = Stats.Running.raw b in
  Array.length ra = Array.length rb
  && Array.for_all2 float_identical ra rb

let metrics_identical (a : Refine.Eval.metrics) (b : Refine.Eval.metrics) =
  (match (a.Refine.Eval.sqnr_db, b.Refine.Eval.sqnr_db) with
  | None, None -> true
  | Some x, Some y -> float_identical x y
  | _ -> false)
  && a.Refine.Eval.total_bits = b.Refine.Eval.total_bits
  && a.Refine.Eval.overflow_count = b.Refine.Eval.overflow_count
  && float_identical a.Refine.Eval.probe_err_max b.Refine.Eval.probe_err_max
  && (match (a.Refine.Eval.probe_values, b.Refine.Eval.probe_values) with
     | None, None -> true
     | Some x, Some y -> running_identical x y
     | _ -> false)
  &&
  match (a.Refine.Eval.probe_err, b.Refine.Eval.probe_err) with
  | None, None -> true
  | Some x, Some y ->
      Array.for_all2 float_identical (Stats.Err_stats.raw x)
        (Stats.Err_stats.raw y)
  | _ -> false

(* nan-tolerant bit-level round trip: every field, monitor state
   included, must come back bit-identical — the property that keeps
   warm reports byte-equal to cold ones. *)
let prop_codec_roundtrip =
  QCheck2.Test.make ~name:"codec round-trips metrics bit-exactly" ~count:300
    gen_metrics (fun m ->
      match Serve.Codec.decode (Serve.Codec.encode m) with
      | Some m' -> metrics_identical m m'
      | None -> false)

let test_codec_rejects_garbage () =
  check bool_t "empty" true (Serve.Codec.decode "" = None);
  check bool_t "wrong header" true
    (Serve.Codec.decode "fxmetrics 99\nsqnr none\nbits 0\novf 0\nerrmax 0x0p+0\npv none\npe none"
    = None);
  check bool_t "truncated" true
    (Serve.Codec.decode "fxmetrics 1\nsqnr none\nbits 0" = None);
  check bool_t "bad monitor arity" true
    (Serve.Codec.decode
       "fxmetrics 1\nsqnr none\nbits 0\novf 0\nerrmax 0x0p+0\npv 0x0p+0\npe none"
    = None)

(* --- cache store --------------------------------------------------------- *)

let test_cache_memory_roundtrip () =
  let c = Serve.Cache.create () in
  check bool_t "miss on empty" true (Serve.Cache.lookup c "k" = None);
  Serve.Cache.insert c "k" "payload";
  check bool_t "hit after insert" true
    (Serve.Cache.lookup c "k" = Some "payload");
  let s = Serve.Cache.stats c in
  check int_t "one miss" 1 s.Serve.Cache.misses;
  check int_t "one hit" 1 s.Serve.Cache.hits;
  check int_t "one entry" 1 s.Serve.Cache.entries

let test_cache_persistence () =
  let dir = scratch () in
  let c1 = Serve.Cache.create ~dir () in
  Serve.Cache.insert c1 "aaaa" "first";
  Serve.Cache.insert c1 "bbbb" "second";
  (* a fresh cache value over the same directory sees the entries *)
  let c2 = Serve.Cache.create ~dir () in
  check int_t "entries reloaded" 2 (Serve.Cache.entry_count c2);
  check bool_t "payload intact" true
    (Serve.Cache.lookup c2 "aaaa" = Some "first");
  (* disk adoption on miss: an entry another cache value writes after
     this one's load scan is still found *)
  let c4 = Serve.Cache.create ~dir () in
  Serve.Cache.insert c1 "cccc" "third";
  check bool_t "cross-process adoption" true
    (Serve.Cache.lookup c4 "cccc" = Some "third")

let test_cache_eviction () =
  let c = Serve.Cache.create ~max_entries:2 () in
  Serve.Cache.insert c "k1" "v1";
  Serve.Cache.insert c "k2" "v2";
  Serve.Cache.insert c "k3" "v3";
  let s = Serve.Cache.stats c in
  check int_t "bounded" 2 s.Serve.Cache.entries;
  check int_t "one eviction" 1 s.Serve.Cache.evictions;
  (* no hits in between: the oldest entry went *)
  check bool_t "oldest evicted" true (Serve.Cache.lookup c "k1" = None);
  check bool_t "newest kept" true (Serve.Cache.lookup c "k3" = Some "v3")

(* A hit earns a second chance: k1 is the oldest entry, but the lookup
   between the inserts gives it a credit, so the eviction scan passes
   over it (spending the credit) and takes k2. *)
let test_cache_hit_second_chance () =
  let c = Serve.Cache.create ~max_entries:2 () in
  Serve.Cache.insert c "k1" "v1";
  Serve.Cache.insert c "k2" "v2";
  check bool_t "k1 hit" true (Serve.Cache.lookup c "k1" = Some "v1");
  Serve.Cache.insert c "k3" "v3";
  check int_t "one eviction" 1 (Serve.Cache.stats c).Serve.Cache.evictions;
  check bool_t "hit entry kept" true (Serve.Cache.lookup c "k1" = Some "v1");
  check bool_t "unreferenced entry evicted" true
    (Serve.Cache.lookup c "k2" = None);
  check bool_t "newest kept" true (Serve.Cache.lookup c "k3" = Some "v3")

(* [scrub] drops a healed key from the index; its old place in the
   eviction order must not outlive it and evict the key's next,
   fresh insert ahead of older entries. *)
let test_cache_scrub_stale_slot () =
  let dir = scratch () in
  let c = Serve.Cache.create ~dir ~max_entries:2 () in
  Serve.Cache.insert c "a" "first a";
  Serve.Cache.insert c "b" "b";
  let oc = open_out_bin (Filename.concat dir "a.entry") in
  output_string oc "fxcache2 7 00000000\nfirst a";
  close_out oc;
  check int_t "a healed" 1 (Serve.Cache.scrub c).Serve.Cache.healed;
  Serve.Cache.insert c "a" "second a";
  Serve.Cache.insert c "c" "c";
  check int_t "one eviction" 1 (Serve.Cache.stats c).Serve.Cache.evictions;
  check bool_t "older b evicted" true
    (not (Sys.file_exists (Filename.concat dir "b.entry")));
  check bool_t "fresh a kept" true
    (Serve.Cache.lookup c "a" = Some "second a");
  check bool_t "c kept" true (Serve.Cache.lookup c "c" = Some "c")

(* Evicting deletes the entry's file, so a bounded durable cache's
   directory holds exactly its live entries, and a fresh cache over it
   adopts them all. *)
let test_cache_bounded_durable () =
  let dir = scratch () in
  let c = Serve.Cache.create ~dir ~max_entries:3 () in
  List.iter (fun k -> Serve.Cache.insert c k ("v" ^ k)) [ "a"; "b"; "c" ];
  ignore (Serve.Cache.lookup c "a");
  (* d evicts b (a spends its credit), e evicts c *)
  Serve.Cache.insert c "d" "vd";
  Serve.Cache.insert c "e" "ve";
  check int_t "two evictions" 2 (Serve.Cache.stats c).Serve.Cache.evictions;
  let files =
    List.filter_map
      (Filename.chop_suffix_opt ~suffix:".entry")
      (List.sort compare (Array.to_list (Sys.readdir dir)))
  in
  check (Alcotest.list string_t) "files = live entries" [ "a"; "d"; "e" ] files;
  let fresh = Serve.Cache.create ~dir ~max_entries:3 () in
  check int_t "all adopted" 3 (Serve.Cache.entry_count fresh);
  List.iter
    (fun k ->
      check bool_t ("adopted " ^ k) true
        (Serve.Cache.lookup fresh k = Some ("v" ^ k)))
    files;
  check int_t "adoption evicts nothing" 0
    (Serve.Cache.stats fresh).Serve.Cache.evictions

(* The CLOCK policy spelled out on a list, oldest slot first, each key
   with its credit: a hit adds one credit up to 3, the eviction scan
   sends a credited head to the tail for one credit and evicts the
   first head without. *)
type clock_model = {
  mutable ring : (string * int) list;
  mutable m_hits : int;
  mutable m_misses : int;
  mutable m_inserts : int;
  mutable m_evictions : int;
}

let model_lookup m k =
  if List.mem_assoc k m.ring then begin
    m.m_hits <- m.m_hits + 1;
    m.ring <-
      List.map (fun (k', c) -> if k' = k then (k', min 3 (c + 1)) else (k', c)) m.ring;
    Some ("v" ^ k)
  end
  else begin
    m.m_misses <- m.m_misses + 1;
    None
  end

let model_insert ~limit m k =
  if not (List.mem_assoc k m.ring) then begin
    m.m_inserts <- m.m_inserts + 1;
    let rec scan = function
      | ring when List.length ring <= limit -> ring
      | (k', c) :: rest when c > 0 -> scan (rest @ [ (k', c - 1) ])
      | _ :: rest ->
          m.m_evictions <- m.m_evictions + 1;
          scan rest
      | [] -> []
    in
    m.ring <- scan (m.ring @ [ (k, 0) ])
  end

let prop_cache_clock_model =
  QCheck2.Test.make ~name:"bounded cache = CLOCK list model" ~count:300
    QCheck2.Gen.(
      pair (int_range 1 4) (list_size (int_range 0 60) (pair bool (int_range 0 6))))
    (fun (limit, ops) ->
      let c = Serve.Cache.create ~max_entries:limit () in
      let m =
        { ring = []; m_hits = 0; m_misses = 0; m_inserts = 0; m_evictions = 0 }
      in
      let same_stats () =
        let s = Serve.Cache.stats c in
        s.Serve.Cache.hits = m.m_hits
        && s.Serve.Cache.misses = m.m_misses
        && s.Serve.Cache.inserts = m.m_inserts
        && s.Serve.Cache.evictions = m.m_evictions
        && s.Serve.Cache.entries = List.length m.ring
      in
      List.for_all
        (fun (is_lookup, i) ->
          let k = string_of_int i in
          (if is_lookup then Serve.Cache.lookup c k = model_lookup m k
           else begin
             Serve.Cache.insert c k ("v" ^ k);
             model_insert ~limit m k;
             true
           end)
          && same_stats ())
        ops
      && List.for_all
           (fun i ->
             let k = string_of_int i in
             (Serve.Cache.lookup c k <> None) = List.mem_assoc k m.ring)
           [ 0; 1; 2; 3; 4; 5; 6 ])

let test_cache_corrupt_recovery () =
  let dir = scratch () in
  let c1 = Serve.Cache.create ~dir () in
  Serve.Cache.insert c1 "good" "intact payload";
  Serve.Cache.insert c1 "trunc" "this one gets cut";
  (* truncate one entry file mid-payload, plant one alien file *)
  let path = Filename.concat dir "trunc.entry" in
  let raw =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let oc = open_out_bin path in
  output_string oc (String.sub raw 0 (String.length raw - 5));
  close_out oc;
  let oc = open_out_bin (Filename.concat dir "alien.entry") in
  output_string oc "not a cache entry at all";
  close_out oc;
  let c2 = Serve.Cache.create ~dir () in
  let s = Serve.Cache.stats c2 in
  check int_t "only the intact entry survives" 1 s.Serve.Cache.entries;
  check int_t "both damaged files detected" 2 s.Serve.Cache.corrupt;
  check bool_t "damaged files deleted" true
    ((not (Sys.file_exists path))
    && not (Sys.file_exists (Filename.concat dir "alien.entry")));
  check bool_t "good entry readable" true
    (Serve.Cache.lookup c2 "good" = Some "intact payload");
  check bool_t "truncated key is a clean miss" true
    (Serve.Cache.lookup c2 "trunc" = None)

(* A flipped byte that keeps the length intact is invisible to the
   header's byte count — only the CRC-32 catches it.  The damaged key
   must heal as a clean miss and accept a re-insert. *)
let test_cache_crc_heal_on_read () =
  let dir = scratch () in
  let c1 = Serve.Cache.create ~dir () in
  Serve.Cache.insert c1 "rot" "bitrot target payload";
  let path = Filename.concat dir "rot.entry" in
  let raw =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let b = Bytes.of_string raw in
  let off = Bytes.length b - 3 in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x20));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc;
  check bool_t "length unchanged" true
    (String.length raw = Bytes.length b);
  let c2 = Serve.Cache.create ~dir () in
  check bool_t "flipped payload is a clean miss" true
    (Serve.Cache.lookup c2 "rot" = None);
  check bool_t "damaged file deleted" true (not (Sys.file_exists path));
  check int_t "counted corrupt" 1 (Serve.Cache.stats c2).Serve.Cache.corrupt;
  Serve.Cache.insert c2 "rot" "fresh payload";
  check bool_t "key usable again after heal" true
    (Serve.Cache.lookup c2 "rot" = Some "fresh payload")

(* Decay behind a live cache's back: [scrub] re-reads every entry file,
   so corruption that happened after the load scan is still caught and
   dropped from the in-memory index too. *)
let test_cache_scrub () =
  let dir = scratch () in
  let c = Serve.Cache.create ~dir () in
  Serve.Cache.insert c "keep" "good";
  Serve.Cache.insert c "rotten" "about to decay";
  let path = Filename.concat dir "rotten.entry" in
  let oc = open_out_bin path in
  output_string oc "fxcache2 14 00000000\nabout to decay";
  close_out oc;
  let s = Serve.Cache.scrub c in
  check int_t "scanned both" 2 s.Serve.Cache.scanned;
  check int_t "one ok" 1 s.Serve.Cache.ok;
  check int_t "one healed" 1 s.Serve.Cache.healed;
  check bool_t "rotten dropped from memory too" true
    (Serve.Cache.lookup c "rotten" = None);
  check bool_t "rotten file deleted" true (not (Sys.file_exists path));
  check bool_t "clean entry untouched" true
    (Serve.Cache.lookup c "keep" = Some "good")

(* Fuzz the torn-write/bit-rot surface: truncate, flip or extend an
   entry file at a random offset — every subsequent lookup must be a
   clean miss (never a crash, never damaged data served), the file
   must be gone, and the damage must be counted. *)
let prop_torn_entry_clean_miss =
  let root = scratch () in
  let ctr = ref 0 in
  QCheck2.Test.make
    ~name:"torn/corrupted cache entries always heal as clean misses"
    ~count:150
    QCheck2.Gen.(
      triple
        (string_size (int_range 0 64))
        (int_range 0 2)
        (pair nat (int_range 1 255)))
    (fun (payload, mode, (off, x)) ->
      incr ctr;
      let dir = Filename.concat root (string_of_int !ctr) in
      let c1 = Serve.Cache.create ~dir () in
      Serve.Cache.insert c1 "fuzz" payload;
      let path = Filename.concat dir "fuzz.entry" in
      let raw =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let len = String.length raw in
      let damaged =
        match mode with
        | 0 -> String.sub raw 0 (off mod len) (* truncate: strictly shorter *)
        | 1 ->
            (* same-length byte flip at a random offset; x <> 0 *)
            let b = Bytes.of_string raw in
            let i = off mod len in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor x));
            Bytes.to_string b
        | _ -> raw ^ String.make (1 + (off mod 7)) 'Z' (* trailing garbage *)
      in
      let oc = open_out_bin path in
      output_string oc damaged;
      close_out oc;
      let c2 = Serve.Cache.create ~dir () in
      Serve.Cache.lookup c2 "fuzz" = None
      && (not (Sys.file_exists path))
      && (Serve.Cache.stats c2).Serve.Cache.corrupt = 1)

(* --- job journal ---------------------------------------------------------- *)

(* Two journals over one directory in one process (a daemon and a
   recovery, or two daemons under test) name their jobs apart, so
   neither intent overwrites the other. *)
let test_journal_names_process_wide () =
  let dir = scratch () in
  let j1 = Serve.Journal.create ~dir and j2 = Serve.Journal.create ~dir in
  let intent j line =
    let name = Serve.Journal.fresh_name j in
    Serve.Journal.record_intent j { Serve.Journal.name; attempts = 1; line };
    name
  in
  let n1 = intent j1 "first" and n2 = intent j2 "second" in
  check bool_t "distinct names" true (n1 <> n2);
  check
    (Alcotest.list string_t)
    "both intents pending" [ "first"; "second" ]
    (List.sort compare
       (List.map
          (fun (e : Serve.Journal.entry) -> e.Serve.Journal.line)
          (Serve.Journal.pending j1)))

let test_journal_lifecycle () =
  let dir = scratch () in
  let j = Serve.Journal.create ~dir in
  let name = Serve.Journal.fresh_name j in
  let e = { Serve.Journal.name; attempts = 1; line = "sweep request line" } in
  Serve.Journal.record_intent j e;
  (match Serve.Journal.pending j with
  | [ p ] ->
      check string_t "name preserved" name p.Serve.Journal.name;
      check int_t "attempts preserved" 1 p.Serve.Journal.attempts;
      check string_t "line verbatim" "sweep request line" p.Serve.Journal.line
  | l -> Alcotest.failf "expected one pending intent, got %d" (List.length l));
  (* rewriting with a bumped attempt count is the recovery WAL step *)
  Serve.Journal.record_intent j { e with Serve.Journal.attempts = 2 };
  (match Serve.Journal.pending j with
  | [ p ] -> check int_t "attempts bumped" 2 p.Serve.Journal.attempts
  | _ -> Alcotest.fail "intent lost on rewrite");
  Serve.Journal.mark_done j ~name;
  check int_t "done drops the intent" 0
    (List.length (Serve.Journal.pending j));
  (* quarantine keeps the record, under a different suffix *)
  let name2 = Serve.Journal.fresh_name j in
  let e2 = { Serve.Journal.name = name2; attempts = 3; line = "poison" } in
  Serve.Journal.record_intent j e2;
  Serve.Journal.quarantine j e2 ~reason:"retry budget exhausted";
  check int_t "quarantined job no longer pending" 0
    (List.length (Serve.Journal.pending j));
  check bool_t "quarantine file named" true
    (List.mem name2 (Serve.Journal.quarantined j));
  (* an unparsable intent is quarantined on sight, never re-run blind *)
  let oc = open_out_bin (Filename.concat dir "job-zz.intent") in
  output_string oc "not an intent record";
  close_out oc;
  check int_t "garbage intent not pending" 0
    (List.length (Serve.Journal.pending j));
  check bool_t "garbage intent quarantined" true
    (List.mem "zz" (Serve.Journal.quarantined j))

(* Fuzz the intent journal like the cache's torn-entry fuzzer: after a
   truncation, a flipped bit or an append, recovery quarantines the
   intent with its damaged bytes kept and never hands it back as
   pending. *)
let prop_torn_intent_quarantined =
  let root = scratch () in
  let ctr = ref 0 in
  let line =
    Serve.Protocol.request_to_line
      (Serve.Protocol.Sweep
         {
           id = "fuzz";
           params =
             {
               Serve.Protocol.workload = "fir";
               strategy = "grid";
               f_min = 6;
               f_max = 8;
               seeds = 2;
               jobs = 1;
               budget = None;
               target_db = 40.0;
               timeout_s = None;
             };
         })
  in
  QCheck2.Test.make ~name:"damaged intents are quarantined, never re-run"
    ~count:150 ~print:Test_support.Damage.print Test_support.Damage.gen
    (fun d ->
      incr ctr;
      let dir = Filename.concat root (string_of_int !ctr) in
      let j = Serve.Journal.create ~dir in
      Serve.Journal.record_intent j
        { Serve.Journal.name = "fuzz"; attempts = 1; line };
      let path = Filename.concat dir "job-fuzz.intent" in
      let damaged = Test_support.Damage.file d path in
      Serve.Journal.pending (Serve.Journal.create ~dir) = []
      && Serve.Journal.quarantined j = [ "fuzz" ]
      && (not (Sys.file_exists path))
      && Store.Durable.read_record ~magic:"fxintent2"
           (Filename.concat dir "job-fuzz.quarantined")
         = Some ("0\n" ^ damaged ^ "\nreason \"unparsable intent record\"\n"))

(* --- connect_retry failure taxonomy --------------------------------------- *)

let test_connect_retry_failures () =
  let dir = scratch () in
  (* no socket path at all: the daemon never started *)
  let missing = Filename.concat dir "never.sock" in
  (match
     Serve.Client.connect_retry ~attempts:3 ~base_delay_s:0.001 missing
   with
  | exception Serve.Client.Connect_failed { failure; attempts; _ } ->
      check bool_t "no-socket diagnosis" true
        (failure = Serve.Client.No_socket);
      check int_t "gave up after the budget" 3 attempts
  | _ -> Alcotest.fail "connect to a missing socket should fail");
  (* stale socket: the path exists but nothing is listening — a daemon
     that died without cleaning up *)
  let stale = Filename.concat dir "stale.sock" in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX stale);
  Unix.close fd (* closed without listen or unlink: refuses connections *);
  (match
     Serve.Client.connect_retry ~attempts:3 ~base_delay_s:0.001 stale
   with
  | exception Serve.Client.Connect_failed { failure; _ } ->
      check bool_t "stale-socket diagnosis" true
        (failure = Serve.Client.Stale_socket)
  | _ -> Alcotest.fail "connect to a stale socket should fail");
  check bool_t "attempts < 1 rejected" true
    (try
       ignore (Serve.Client.connect_retry ~attempts:0 missing);
       false
     with Invalid_argument _ -> true)

(* --- cold/warm sweep byte equality --------------------------------------- *)

let run_sweep ?cache () =
  let workload = Sweep.Workload.fir ~n:64 () in
  let specs = workload.Sweep.Workload.specs in
  let generator =
    Sweep.Generator.grid ~specs ~f_min:5 ~f_max:6 ~seeds:[ 0 ]
  in
  Sweep.Report.to_json (Sweep.Pool.run ~jobs:1 ?cache ~workload ~generator ())

let test_cold_warm_byte_equal () =
  let dir = scratch () in
  let reference = run_sweep () in
  let cold_cache = Serve.Cache.create ~dir () in
  let cold = run_sweep ~cache:(Serve.Codec.eval_cache cold_cache) () in
  let warm_cache = Serve.Cache.create ~dir () in
  let warm = run_sweep ~cache:(Serve.Codec.eval_cache warm_cache) () in
  check string_t "cache transparent" reference cold;
  check string_t "warm byte-identical" cold warm;
  let s = Serve.Cache.stats warm_cache in
  check int_t "warm run all hits" 2 s.Serve.Cache.hits;
  check int_t "warm run no misses" 0 s.Serve.Cache.misses

(* --- wire + protocol ------------------------------------------------------ *)

let test_wire_roundtrip () =
  let module J = Trace.Json in
  let fields =
    [
      ("op", J.String "report");
      ("text", J.String "line1\nline2\t\"quoted\" \\ done\001\195\169");
      ("n", J.Int (-42));
      ("x", J.Float 0.5);
      ("ok", J.Bool true);
      ("nothing", J.Null);
      ("names", J.Strings [ "a"; ""; "b c" ]);
    ]
  in
  let line = J.object_lit fields in
  check bool_t "single line" true (not (String.contains line '\n'));
  match J.parse_object line with
  | Error e -> Alcotest.failf "wire line did not parse: %s" e
  | Ok fields' ->
      check bool_t "fields preserved in order" true (fields = fields');
      let rejected s = Result.is_error (J.parse_object s) in
      List.iter
        (fun (what, s) -> check bool_t what true (rejected s))
        [
          ("trailing garbage rejected", line ^ "x");
          ("non-object rejected", "[1]");
          ("duplicate key rejected", "{\"op\": \"ping\", \"op\": \"shutdown\"}");
          ("leading zero rejected", "{\"n\": 01}");
          ("bare trailing dot rejected", "{\"x\": 1.}");
          ("bare leading dot rejected", "{\"x\": .5}");
          ("plus sign rejected", "{\"n\": +1}");
          ("hex rejected", "{\"n\": 0x10}");
          ("trailing comma in object rejected", "{\"n\": 1,}");
          ("trailing comma in array rejected", "{\"t\": [\"a\",]}");
          ("missing array comma rejected", "{\"t\": [\"a\" \"b\"]}");
          ("nested object rejected", "{\"o\": {}}");
          ("raw control byte rejected", "{\"s\": \"a\tb\"}");
          ("non-ASCII \\u rejected", "{\"s\": \"\\u00e9\"}");
          ("OCaml decimal escape rejected", "{\"s\": \"\\001\"}");
        ];
      check bool_t "JSON number forms accepted" true
        (J.parse_object "{\"a\": -0, \"b\": 1.5e-3, \"c\": 2E+2, \"d\": 0.25}"
        = Ok
            [ ("a", J.Int 0); ("b", J.Float 1.5e-3); ("c", J.Float 200.0);
              ("d", J.Float 0.25) ])

(* Any flat object the writer can render reads back to the same fields;
   a float that renders without fraction or exponent reads back as the
   equal [Int], which every float accessor accepts. *)
let prop_wire_roundtrip =
  let module J = Trace.Json in
  let value =
    QCheck2.Gen.(
      oneof
        [
          map (fun s -> J.String s) (string_size ~gen:char (int_range 0 12));
          map (fun i -> J.Int i) int;
          map (fun f -> J.Float f) (float_range (-1e6) 1e6);
          map (fun f -> J.Float f) (oneofl [ 1e300; -5e-324; 0.1; 1e16 ]);
          map (fun b -> J.Bool b) bool;
          return J.Null;
          map
            (fun l -> J.Strings l)
            (list_size (int_range 0 3) (string_size ~gen:char (int_range 0 5)));
        ])
  in
  QCheck2.Test.make ~name:"wire objects round-trip" ~count:300
    QCheck2.Gen.(
      list_size (int_range 0 6)
        (pair (string_size ~gen:char (int_range 0 6)) value))
    (fun kvs ->
      (* unique keys: the index after the last NUL tells them apart *)
      let fields =
        List.mapi (fun i (k, v) -> (k ^ "\000" ^ string_of_int i, v)) kvs
      in
      let same a b =
        match (a, b) with
        | J.Float f, J.Int i -> float_of_int i = f
        | a, b -> a = b
      in
      match J.parse_object (J.object_lit fields) with
      | Ok back ->
          List.length back = List.length fields
          && List.for_all2
               (fun (k, v) (k', v') -> k = k' && same v v')
               fields back
      | Error _ -> false)

(* One sweep's parameters, every field set: the wire cases below and
   the pinned wave-journal key use it. *)
let key_params =
  {
    Serve.Protocol.workload = "fir";
    strategy = "bisect";
    f_min = 2;
    f_max = 10;
    seeds = 3;
    jobs = 2;
    budget = Some 7;
    target_db = 35.5;
    timeout_s = Some 1.25;
  }

let test_protocol_roundtrip () =
  let reqs =
    [
      Serve.Protocol.Ping { id = "a" };
      Serve.Protocol.Stats { id = "b" };
      Serve.Protocol.Shutdown { id = "c" };
      Serve.Protocol.Sweep
        {
          id = "d";
          params =
            {
              Serve.Protocol.workload = "fir";
              strategy = "bisect";
              f_min = 2;
              f_max = 10;
              seeds = 3;
              jobs = 2;
              budget = Some 7;
              target_db = 35.5;
              timeout_s = Some 1.25;
            };
        };
    ]
  in
  List.iter
    (fun r ->
      check bool_t "request round-trips" true
        (Serve.Protocol.request_of_line (Serve.Protocol.request_to_line r)
        = Some r))
    reqs;
  let resps =
    [
      Serve.Protocol.Pong { id = "a" };
      Serve.Protocol.Bye { id = "c" };
      Serve.Protocol.Error { id = "e"; message = "no \"such\" workload" };
      Serve.Protocol.Report
        { id = "d"; report = "{\n  \"k\": 1\n}\n"; hits = 3; misses = 4 };
      Serve.Protocol.Busy { id = ""; active = 64; limit = 64 };
      Serve.Protocol.Stats_reply
        {
          id = "s\195\169";
          stats =
            {
              Serve.Cache.hits = 1;
              misses = 2;
              inserts = 3;
              evictions = 4;
              corrupt = 5;
              entries = 6;
            };
        };
    ]
  in
  List.iter
    (fun r ->
      check bool_t "response round-trips" true
        (Serve.Protocol.response_of_line (Serve.Protocol.response_to_line r)
        = Some r))
    resps;
  (* the first and the last of two [op]s used to disagree between
     readers; a duplicate key is now no request at all *)
  check bool_t "duplicate op rejected" true
    (Serve.Protocol.request_of_line
       "{\"op\": \"ping\", \"op\": \"shutdown\"}"
    = None);
  (* an optional field present with the wrong type is no request, not
     its default: [request_to_line] writes a NaN target as "nan" *)
  let sweep_line extra =
    "{\"op\": \"sweep\", \"id\": \"x\", \"workload\": \"fir\", \
     \"strategy\": \"bisect\", \"f_min\": 2, \"f_max\": 9, \"seeds\": 1"
    ^ extra ^ "}"
  in
  check bool_t "defaults when absent" true
    (match Serve.Protocol.request_of_line (sweep_line "") with
    | Some (Serve.Protocol.Sweep { params; _ }) ->
        params.Serve.Protocol.target_db = 40.0
        && params.Serve.Protocol.timeout_s = None
        && params.Serve.Protocol.jobs = 1
        && params.Serve.Protocol.budget = None
    | _ -> false);
  List.iter
    (fun extra ->
      check bool_t (extra ^ " rejected") true
        (Serve.Protocol.request_of_line (sweep_line extra) = None))
    [
      ", \"target_db\": \"nan\"";
      ", \"target_db\": null";
      ", \"timeout_s\": \"nan\"";
      ", \"timeout_s\": true";
      ", \"jobs\": \"2\"";
      ", \"budget\": 1.5";
    ];
  (* a field the op does not define is no request, not the request
     without it: a misspelled optional field must not take its
     default *)
  List.iter
    (fun extra ->
      check bool_t (extra ^ " rejected") true
        (Serve.Protocol.request_of_line (sweep_line extra) = None))
    [
      ", \"budgett\": 3";
      ", \"target_dB\": 55.0";
      ", \"timeout\": 1.0";
      ", \"job\": 2";
      ", \"report\": \"x\"";
    ];
  List.iter
    (fun op ->
      List.iter
        (fun extra ->
          let line =
            Printf.sprintf "{\"op\": \"%s\", \"id\": \"a\"%s}" op extra
          in
          check bool_t (line ^ " rejected") true
            (Serve.Protocol.request_of_line line = None))
        [ ", \"workload\": \"fir\""; ", \"jobs\": 1"; ", \"x\": null" ])
    [ "ping"; "stats"; "shutdown" ];
  (* every field [request_to_line] writes is one the decoder defines,
     with each optional field present or absent *)
  List.iter
    (fun (budget, timeout_s) ->
      let r =
        Serve.Protocol.Sweep
          {
            id = "o";
            params = { key_params with Serve.Protocol.budget; timeout_s };
          }
      in
      check bool_t "optional fields round-trip" true
        (Serve.Protocol.request_of_line (Serve.Protocol.request_to_line r)
        = Some r))
    [ (None, None); (Some 1, None); (None, Some 2.5); (Some 4, Some 0.5) ];
  (* [id] too: absent is [""], present with another type is no line *)
  check bool_t "absent request id reads as empty" true
    (Serve.Protocol.request_of_line "{\"op\": \"ping\"}"
    = Some (Serve.Protocol.Ping { id = "" }));
  check bool_t "absent response id reads as empty" true
    (Serve.Protocol.response_of_line "{\"op\": \"pong\"}"
    = Some (Serve.Protocol.Pong { id = "" }));
  List.iter
    (fun id ->
      check bool_t ("request id " ^ id ^ " rejected") true
        (Serve.Protocol.request_of_line
           (Printf.sprintf "{\"op\": \"ping\", \"id\": %s}" id)
        = None);
      check bool_t ("sweep id " ^ id ^ " rejected") true
        (Serve.Protocol.request_of_line
           (Printf.sprintf
              "{\"op\": \"sweep\", \"id\": %s, \"workload\": \"fir\", \
               \"strategy\": \"grid\", \"f_min\": 2, \"f_max\": 9, \
               \"seeds\": 1}"
              id)
        = None);
      check bool_t ("response id " ^ id ^ " rejected") true
        (Serve.Protocol.response_of_line
           (Printf.sprintf "{\"op\": \"pong\", \"id\": %s}" id)
        = None))
    [ "5"; "7"; "1.5"; "null"; "true"; "[\"a\"]" ];
  check bool_t "NaN target does not round-trip" true
    (Serve.Protocol.request_of_line
       (Serve.Protocol.request_to_line
          (Serve.Protocol.Sweep
             {
               id = "x";
               params =
                 {
                   Serve.Protocol.workload = "fir";
                   strategy = "bisect";
                   f_min = 2;
                   f_max = 9;
                   seeds = 1;
                   jobs = 1;
                   budget = None;
                   target_db = Float.nan;
                   timeout_s = None;
                 };
             }))
    = None)

(* --- the wave-journal key ------------------------------------------------ *)

let test_checkpoint_key () =
  let key = Serve.Protocol.checkpoint_key in
  let base = key key_params in
  (* the journal directory [fxrefine sweep --workload fir --strategy
     bisect --f-min 2 --f-max 10 --seeds 3 --budget 7 --target-db 35.5
     --checkpoint DIR] creates; a change here orphans every journal *)
  check string_t "pinned digest" "06764bbb8cf56f1a928ccc3fb887a532" base;
  List.iter
    (fun (what, p) -> check string_t (what ^ " ignored") base (key p))
    [
      ("jobs", { key_params with jobs = 1 });
      ("timeout_s", { key_params with timeout_s = None });
    ];
  List.iter
    (fun (what, p) -> check bool_t (what ^ " keyed") true (key p <> base))
    [
      ("workload", { key_params with workload = "lms" });
      ("strategy", { key_params with strategy = "grid" });
      ("f_min", { key_params with f_min = 3 });
      ("f_max", { key_params with f_max = 11 });
      ("seeds", { key_params with seeds = 2 });
      ("budget", { key_params with budget = None });
      ("budget value", { key_params with budget = Some 8 });
      ("target_db", { key_params with target_db = 35.25 });
    ]

(* --- sweep-parameter validation ------------------------------------------ *)

(* The daemon, [fxrefine sweep] and [fxrefine faultsim] all validate
   through [sweep_of_params]; its messages are the daemon's replies. *)
let test_sweep_params_validation () =
  let rejects ?strategies what p expected =
    match Serve.Protocol.sweep_of_params ?strategies p with
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error msg -> check string_t what expected msg
  in
  let p = key_params in
  rejects "workload" { p with workload = "nonesuch" }
    "unknown workload \"nonesuch\"";
  rejects "range" { p with f_min = 8; f_max = 4 } "f_min > f_max";
  rejects "seeds" { p with seeds = 0 } "seeds < 1";
  rejects "jobs" { p with jobs = 0 } "jobs < 1";
  rejects "budget" { p with budget = Some 0 } "budget < 1";
  List.iter
    (fun target_db ->
      rejects
        (Printf.sprintf "target_db %g" target_db)
        { p with target_db } "target_db is not a finite number")
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  List.iter
    (fun t ->
      rejects
        (Printf.sprintf "timeout_s %g" t)
        { p with timeout_s = Some t }
        "timeout_s is not a positive finite number")
    [ Float.nan; Float.infinity; Float.neg_infinity; 0.0; -1.0 ];
  rejects "strategy" { p with strategy = "nonesuch" }
    "unknown strategy \"nonesuch\" (grid|bisect|pareto)";
  rejects ~strategies:[ "grid"; "pareto" ] "restricted strategy" p
    "unknown strategy \"bisect\" (grid|pareto)";
  (* checked in order: the first failing check names the reply *)
  rejects "first failure wins"
    { p with workload = "nonesuch"; seeds = 0; jobs = 0 }
    "unknown workload \"nonesuch\"";
  rejects "jobs before strategy"
    { p with jobs = 0; strategy = "nonesuch" }
    "jobs < 1";
  rejects "jobs before budget"
    { p with jobs = 0; budget = Some (-1) }
    "jobs < 1";
  rejects "budget before strategy"
    { p with budget = Some 0; strategy = "nonesuch" }
    "budget < 1";
  rejects "budget before target_db"
    { p with budget = Some 0; target_db = Float.nan }
    "budget < 1";
  rejects "target_db before timeout_s"
    { p with target_db = Float.infinity; timeout_s = Some Float.nan }
    "target_db is not a finite number";
  rejects "timeout_s before strategy"
    { p with timeout_s = Some 0.0; strategy = "nonesuch" }
    "timeout_s is not a positive finite number";
  List.iter
    (fun budget ->
      match Serve.Protocol.sweep_of_params { p with budget } with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "budget rejected: %s" msg)
    [ Some 1; None ];
  List.iter
    (fun timeout_s ->
      match Serve.Protocol.sweep_of_params { p with timeout_s } with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "timeout_s rejected: %s" msg)
    [ Some 1e-3; None ];
  List.iter
    (fun strategy ->
      match Serve.Protocol.sweep_of_params { p with strategy } with
      | Ok (w, g) ->
          check string_t "workload" "fir" w.Sweep.Workload.name;
          check string_t "generator" strategy (Sweep.Generator.name g)
      | Error msg -> Alcotest.failf "%s rejected: %s" strategy msg)
    [ "grid"; "bisect"; "pareto" ]

(* --- daemon round trip ---------------------------------------------------- *)

let test_daemon_roundtrip () =
  let dir = scratch () in
  let socket = Filename.concat dir "t.sock" in
  let daemon =
    Thread.create (fun () -> try Serve.Daemon.run ~socket () with _ -> ()) ()
  in
  let c = Serve.Client.connect_retry socket in
  Fun.protect
    ~finally:(fun () -> Serve.Client.close c)
    (fun () ->
      check bool_t "ping" true
        (Serve.Client.request c (Serve.Protocol.Ping { id = "1" })
        = Serve.Protocol.Pong { id = "1" });
      (match
         Serve.Client.request c
           (Serve.Protocol.Sweep
              {
                id = "2";
                params =
                  {
                    Serve.Protocol.workload = "nonesuch";
                    strategy = "grid";
                    f_min = 4;
                    f_max = 5;
                    seeds = 1;
                    jobs = 1;
                    budget = None;
                    target_db = 40.0;
                    timeout_s = None;
                  };
              })
       with
      | Serve.Protocol.Error { id = "2"; _ } -> ()
      | _ -> Alcotest.fail "unknown workload should answer an error");
      check bool_t "shutdown acknowledged" true
        (Serve.Client.request c (Serve.Protocol.Shutdown { id = "3" })
        = Serve.Protocol.Bye { id = "3" }));
  Thread.join daemon;
  check bool_t "socket file removed" true (not (Sys.file_exists socket))

(* --- daemon recovery --------------------------------------------------- *)

(* A journal left behind by a dead daemon: one intent admitted once, one
   admitted three times.  The next daemon re-runs the first to
   completion and quarantines the second at its retry budget. *)
let test_daemon_recovery_budget () =
  let dir = scratch () in
  let journal_dir = Filename.concat dir "journal" in
  let socket = Filename.concat dir "r.sock" in
  let j = Serve.Journal.create ~dir:journal_dir in
  let intent attempts =
    let name = Serve.Journal.fresh_name j in
    let params =
      {
        key_params with
        Serve.Protocol.strategy = "grid";
        f_min = 5;
        f_max = 6;
        seeds = 1;
        jobs = 1;
        budget = None;
        timeout_s = None;
      }
    in
    let line =
      Serve.Protocol.request_to_line
        (Serve.Protocol.Sweep { id = name; params })
    in
    Serve.Journal.record_intent j { Serve.Journal.name; attempts; line };
    name
  in
  let rerun = intent 1 in
  let poisoned = intent 3 in
  let logged = ref [] and log_mutex = Mutex.create () in
  let log msg = Mutex.protect log_mutex (fun () -> logged := msg :: !logged) in
  let daemon =
    Thread.create
      (fun () -> try Serve.Daemon.run ~journal_dir ~log ~socket () with _ -> ())
      ()
  in
  let deadline = Unix.gettimeofday () +. 60.0 in
  while Serve.Journal.pending j <> [] && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  let c = Serve.Client.connect_retry socket in
  Fun.protect
    ~finally:(fun () -> Serve.Client.close c)
    (fun () ->
      ignore (Serve.Client.request c (Serve.Protocol.Shutdown { id = "s" })));
  Thread.join daemon;
  check int_t "nothing left pending" 0 (List.length (Serve.Journal.pending j));
  check bool_t "first intent re-run to completion" true
    (List.mem
       (Printf.sprintf "recovery: job %s re-run to completion" rerun)
       !logged);
  check (Alcotest.list string_t) "second intent quarantined" [ poisoned ]
    (Serve.Journal.quarantined j);
  let record =
    In_channel.with_open_bin
      (Filename.concat journal_dir ("job-" ^ poisoned ^ ".quarantined"))
      In_channel.input_all
  in
  check bool_t "quarantine reason" true
    (List.mem "reason \"retry budget exhausted (3 attempts)\""
       (String.split_on_char '\n' record))

(* --- the daemon's wave-journal lifetime ---------------------------------- *)

(* A journaled daemon in a thread for the length of [f socket], shut
   down by request afterwards. *)
let with_daemon ?max_entries ?log ~journal_dir f =
  let socket = Filename.concat (scratch ()) "j.sock" in
  let daemon =
    Thread.create
      (fun () ->
        try Serve.Daemon.run ?max_entries ?log ~journal_dir ~socket ()
        with _ -> ())
      ()
  in
  let stop () =
    let c = Serve.Client.connect_retry socket in
    Fun.protect
      ~finally:(fun () -> Serve.Client.close c)
      (fun () ->
        ignore (Serve.Client.request c (Serve.Protocol.Shutdown { id = "s" })));
    Thread.join daemon
  in
  Fun.protect ~finally:stop (fun () -> f socket)

(* Everything under [journal_dir/checkpoints]: key directories and the
   files inside them. *)
let leftover journal_dir =
  let root = Filename.concat journal_dir "checkpoints" in
  List.concat_map
    (fun key ->
      key
      :: List.map (Filename.concat key)
           (Store.Durable.readdir_sorted (Filename.concat root key)))
    (Store.Durable.readdir_sorted root)

let local_report p =
  match Serve.Protocol.sweep_of_params p with
  | Ok (workload, generator) ->
      Sweep.Report.to_json (Sweep.Pool.run ~jobs:1 ~workload ~generator ())
  | Error msg -> Alcotest.fail msg

let lifetime_params =
  {
    key_params with
    Serve.Protocol.strategy = "grid";
    f_min = 5;
    f_max = 6;
    seeds = 1;
    jobs = 1;
    budget = None;
    target_db = 40.0;
    timeout_s = None;
  }

(* a bisect of several sequential waves *)
let bisect_params =
  {
    lifetime_params with
    Serve.Protocol.strategy = "bisect";
    f_min = 2;
    f_max = 12;
    seeds = 2;
  }

let submit socket id params =
  let c = Serve.Client.connect_retry socket in
  Fun.protect
    ~finally:(fun () -> Serve.Client.close c)
    (fun () -> Serve.Client.request c (Serve.Protocol.Sweep { id; params }))

(* The wave journal of [p] run to completion under [dir]. *)
let journal_waves ~dir p =
  let cp =
    Sweep.Checkpoint.create ~dir ~key:(Serve.Protocol.checkpoint_key p) ()
  in
  (match Serve.Protocol.sweep_of_params p with
  | Ok (workload, generator) ->
      ignore (Sweep.Pool.run ~jobs:1 ~checkpoint:cp ~workload ~generator ())
  | Error msg -> Alcotest.fail msg);
  Sweep.Checkpoint.waves cp

(* Every answered job retires its wave journal before its intent goes:
   a grid, a multi-wave bisect, a resubmission and a timed-out job each
   leave nothing under [checkpoints], and every report is the bytes of
   an unjournaled local sweep. *)
let test_daemon_retires_answered_journals () =
  let journal_dir = Filename.concat (scratch ()) "journal" in
  let j = Serve.Journal.create ~dir:journal_dir in
  check bool_t "the bisect runs several waves" true
    (journal_waves ~dir:(scratch ()) bisect_params >= 3);
  with_daemon ~journal_dir (fun socket ->
      List.iter
        (fun (id, p) ->
          (match submit socket id p with
          | Serve.Protocol.Report { report; _ } ->
              check string_t (id ^ " report") (local_report p) report
          | r ->
              Alcotest.failf "%s: %s" id (Serve.Protocol.response_to_line r));
          check (Alcotest.list string_t) (id ^ ": no journal left") []
            (leftover journal_dir);
          check int_t (id ^ ": no intent left") 0
            (List.length (Serve.Journal.pending j)))
        [
          ("grid", lifetime_params);
          ("bisect", bisect_params);
          ("resubmitted", lifetime_params);
          ("resubmitted bisect", { bisect_params with jobs = 2 });
        ];
      (* a timeout is a definite answer too: its waves go *)
      match
        submit socket "late"
          { bisect_params with target_db = 30.0; timeout_s = Some 1e-9 }
      with
      | Serve.Protocol.Error { message; _ } ->
          check bool_t "timed out" true
            (String.starts_with ~prefix:"timeout:" message);
          check (Alcotest.list string_t) "timeout: no journal left" []
            (leftover journal_dir)
      | r -> Alcotest.failf "late: %s" (Serve.Protocol.response_to_line r))

(* Two identical jobs in flight at once share one wave journal: the
   first to finish must not delete it under the other.  A one-entry
   cache makes both evaluate every wave, each on two domains, side by
   side. *)
let test_daemon_identical_jobs_in_flight () =
  let journal_dir = Filename.concat (scratch ()) "journal" in
  with_daemon ~max_entries:1 ~journal_dir (fun socket ->
      List.iter
        (fun target_db ->
          let p =
            {
              bisect_params with
              Serve.Protocol.workload = "sync";
              seeds = 12;
              jobs = 2;
              target_db;
            }
          in
          let reference = local_report p in
          let answers = Array.make 2 None in
          let threads =
            List.init 2 (fun k ->
                Thread.create
                  (fun () ->
                    answers.(k) <-
                      Some
                        (try submit socket (string_of_int k) p
                         with exn ->
                           Serve.Protocol.Error
                             {
                               id = "client";
                               message = Printexc.to_string exn;
                             }))
                  ())
          in
          List.iter Thread.join threads;
          Array.iteri
            (fun k a ->
              match a with
              | Some (Serve.Protocol.Report { report; _ }) ->
                  check string_t
                    (Printf.sprintf "job %d at %g dB" k target_db)
                    reference report
              | Some r ->
                  Alcotest.failf "job %d at %g dB: %s" k target_db
                    (Serve.Protocol.response_to_line r)
              | None -> Alcotest.failf "job %d unanswered" k)
            answers;
          check (Alcotest.list string_t) "no journal left" []
            (leftover journal_dir))
        [ 30.0; 40.0; 50.0 ])

(* A drained job keeps its waves, since its intent stays pending: the
   next daemon's recovery replays them, then retires them. *)
let test_daemon_drain_keeps_journal () =
  let dir = scratch () in
  let journal_dir = Filename.concat dir "journal" in
  let socket = Filename.concat dir "d.sock" in
  let j = Serve.Journal.create ~dir:journal_dir in
  let p =
    { bisect_params with Serve.Protocol.workload = "sync"; seeds = 24 }
  in
  let daemon =
    Thread.create
      (fun () -> try Serve.Daemon.run ~journal_dir ~socket () with _ -> ())
      ()
  in
  let c = Serve.Client.connect_retry socket in
  let answer = ref None in
  let job =
    Thread.create
      (fun () ->
        answer :=
          Some
            (Serve.Client.request c
               (Serve.Protocol.Sweep { id = "d"; params = p })))
      ()
  in
  let waves () =
    List.length
      (List.filter
         (fun f -> Filename.check_suffix f ".wv")
         (leftover journal_dir))
  in
  let deadline = Unix.gettimeofday () +. 60.0 in
  while waves () = 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.002
  done;
  (* the daemon's handler is installed while [run] is live *)
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  Thread.join job;
  Thread.join daemon;
  Serve.Client.close c;
  (match !answer with
  | Some (Serve.Protocol.Error { message; _ }) ->
      check bool_t "answered draining" true
        (String.starts_with ~prefix:"draining:" message)
  | Some r ->
      Alcotest.failf "drained job: %s" (Serve.Protocol.response_to_line r)
  | None -> Alcotest.fail "drained job unanswered");
  check int_t "intent pending" 1 (List.length (Serve.Journal.pending j));
  let kept = waves () in
  check bool_t "waves kept" true (kept >= 1);
  with_daemon ~journal_dir (fun socket ->
      while Serve.Journal.pending j <> [] && Unix.gettimeofday () < deadline do
        Thread.delay 0.01
      done;
      check int_t "recovered" 0 (List.length (Serve.Journal.pending j));
      check (Alcotest.list string_t) "recovered waves retired" []
        (leftover journal_dir);
      match submit socket "again" p with
      | Serve.Protocol.Report { report; _ } ->
          check string_t "resubmitted report" (local_report p) report
      | r -> Alcotest.failf "again: %s" (Serve.Protocol.response_to_line r))

(* A dead daemon's intent with journaled waves: the next daemon's
   recovery replays them (the cache sees no lookup at all), then
   retires them and the intent. *)
(* What a daemon killed after journaling every wave of [p] leaves: the
   waves and an intent admitted [attempts] times.  Returns the intent's
   name, which no other job in this process can take (job names count
   process-wide). *)
let seed_intent ?(attempts = 1) j ~journal_dir p =
  check bool_t "waves journaled" true
    (journal_waves ~dir:(Filename.concat journal_dir "checkpoints") p >= 3);
  let name = Serve.Journal.fresh_name j in
  Serve.Journal.record_intent j
    {
      Serve.Journal.name;
      attempts;
      line =
        Serve.Protocol.request_to_line
          (Serve.Protocol.Sweep { id = name; params = p });
    };
  name

let lookups socket =
  let c = Serve.Client.connect_retry socket in
  Fun.protect
    ~finally:(fun () -> Serve.Client.close c)
    (fun () ->
      match Serve.Client.request c (Serve.Protocol.Stats { id = "st" }) with
      | Serve.Protocol.Stats_reply { stats; _ } ->
          stats.Serve.Cache.hits + stats.Serve.Cache.misses
      | r -> Alcotest.failf "stats: %s" (Serve.Protocol.response_to_line r))

let test_daemon_recovery_replays_then_retires () =
  let journal_dir = Filename.concat (scratch ()) "journal" in
  let j = Serve.Journal.create ~dir:journal_dir in
  let name = seed_intent j ~journal_dir bisect_params in
  let logged = ref [] and log_mutex = Mutex.create () in
  let log msg = Mutex.protect log_mutex (fun () -> logged := msg :: !logged) in
  with_daemon ~log ~journal_dir (fun socket ->
      let deadline = Unix.gettimeofday () +. 60.0 in
      while Serve.Journal.pending j <> [] && Unix.gettimeofday () < deadline do
        Thread.delay 0.01
      done;
      check int_t "every wave replayed, none evaluated" 0 (lookups socket);
      check (Alcotest.list string_t) "replayed waves retired" []
        (leftover journal_dir));
  check bool_t "re-run to completion" true
    (List.mem
       (Printf.sprintf "recovery: job %s re-run to completion" name)
       !logged)

(* A live job identical to a recovered intent, answered while recovery
   still backs off: the intent holds the key, so the live job leaves
   the waves for the re-run to replay (neither evaluates anything).
   The recovery's backoff (0.2 s for an intent admitted twice) orders
   the two; on a host too slow for that, only bytes and leftovers are
   checked. *)
let test_daemon_live_twin_of_recovered_intent () =
  let journal_dir = Filename.concat (scratch ()) "journal" in
  let j = Serve.Journal.create ~dir:journal_dir in
  let p = bisect_params in
  let name = seed_intent ~attempts:2 j ~journal_dir p in
  let rerun = Printf.sprintf "recovery: job %s re-run to completion" name in
  let logged = ref [] and log_mutex = Mutex.create () in
  let log msg = Mutex.protect log_mutex (fun () -> logged := msg :: !logged) in
  let recovered () =
    Mutex.protect log_mutex (fun () -> List.mem rerun !logged)
  in
  with_daemon ~log ~journal_dir (fun socket ->
      (match submit socket "live" p with
      | Serve.Protocol.Report { report; _ } ->
          check string_t "live report" (local_report p) report
      | r -> Alcotest.failf "live: %s" (Serve.Protocol.response_to_line r));
      let ordered = not (recovered ()) in
      let deadline = Unix.gettimeofday () +. 60.0 in
      while Serve.Journal.pending j <> [] && Unix.gettimeofday () < deadline do
        Thread.delay 0.01
      done;
      if ordered then
        check int_t "both replayed, none evaluated" 0 (lookups socket);
      check (Alcotest.list string_t) "retired once both answered" []
        (leftover journal_dir));
  check bool_t "re-run to completion" true (recovered ())

let suite =
  ( "serve",
    [
      Alcotest.test_case "key stable across runs" `Quick
        test_key_stable_across_runs;
      Alcotest.test_case "key sensitive to every field" `Quick
        test_key_sensitive_to_every_field;
      Test_support.Qseed.to_alcotest prop_key_injective;
      Test_support.Qseed.to_alcotest prop_codec_roundtrip;
      Alcotest.test_case "codec rejects garbage" `Quick
        test_codec_rejects_garbage;
      Alcotest.test_case "cache memory roundtrip" `Quick
        test_cache_memory_roundtrip;
      Alcotest.test_case "cache persistence" `Quick test_cache_persistence;
      Alcotest.test_case "cache eviction" `Quick test_cache_eviction;
      Alcotest.test_case "cache hit second chance" `Quick
        test_cache_hit_second_chance;
      Alcotest.test_case "cache scrub stale slot" `Quick
        test_cache_scrub_stale_slot;
      Alcotest.test_case "cache bounded durable" `Quick
        test_cache_bounded_durable;
      Test_support.Qseed.to_alcotest prop_cache_clock_model;
      Alcotest.test_case "cache corrupt recovery" `Quick
        test_cache_corrupt_recovery;
      Alcotest.test_case "cache CRC heal on read" `Quick
        test_cache_crc_heal_on_read;
      Alcotest.test_case "cache scrub" `Quick test_cache_scrub;
      Test_support.Qseed.to_alcotest prop_torn_entry_clean_miss;
      Alcotest.test_case "journal lifecycle" `Quick test_journal_lifecycle;
      Alcotest.test_case "journal names are process-wide" `Quick
        test_journal_names_process_wide;
      Test_support.Qseed.to_alcotest prop_torn_intent_quarantined;
      Alcotest.test_case "connect_retry failures" `Quick
        test_connect_retry_failures;
      Alcotest.test_case "cold/warm byte equality" `Quick
        test_cold_warm_byte_equal;
      Alcotest.test_case "wire roundtrip" `Quick test_wire_roundtrip;
      Test_support.Qseed.to_alcotest prop_wire_roundtrip;
      Alcotest.test_case "protocol roundtrip" `Quick test_protocol_roundtrip;
      Alcotest.test_case "checkpoint key" `Quick test_checkpoint_key;
      Alcotest.test_case "sweep params validation" `Quick
        test_sweep_params_validation;
      Alcotest.test_case "daemon roundtrip" `Quick test_daemon_roundtrip;
      Alcotest.test_case "daemon recovery retry budget" `Quick
        test_daemon_recovery_budget;
      Alcotest.test_case "daemon retires answered journals" `Quick
        test_daemon_retires_answered_journals;
      Alcotest.test_case "identical jobs in flight share a journal" `Quick
        test_daemon_identical_jobs_in_flight;
      Alcotest.test_case "recovery replays then retires" `Quick
        test_daemon_recovery_replays_then_retires;
      Alcotest.test_case "drained job keeps its journal" `Quick
        test_daemon_drain_keeps_journal;
      Alcotest.test_case "live twin of a recovered intent" `Quick
        test_daemon_live_twin_of_recovered_intent;
    ] )
