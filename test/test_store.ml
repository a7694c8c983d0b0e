(* Unit tests: the persistence layer's on-disk bytes.  Each record
   below is rendered through the public writer that owns it and
   compared against a literal: the [fxmetrics 1] cache payload, its
   [fxcache2] entry, an [fxwave2] checkpoint record and an [fxintent2]
   journal record (live and quarantined).  A refactor of the durable
   writers or the metrics codec must leave every byte in place — a
   drift here silently orphans every cache, checkpoint and journal
   already on disk.  The [fxwave1] and [fxintent1] records from before
   the checked frame stay pinned as what they now cost: a wave that is
   re-evaluated, an intent that is quarantined.  Then the primitives of
   [lib/store] themselves. *)

open Fixrefine

let check = Alcotest.check
let string_t = Alcotest.string

let scratch =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "fxstore-test-%d-%d" (Unix.getpid ()) !ctr)
    in
    (try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let read path = In_channel.with_open_bin path In_channel.input_all

(* Non-finite and signed-zero fields in the scalars and in the
   monitors, one record with the value monitor only, one with the error
   monitor only. *)
let metrics_values =
  {
    Refine.Eval.sqnr_db = Some Float.nan;
    total_bits = 42;
    overflow_count = 3;
    probe_err_max = Float.infinity;
    probe_values =
      Some
        (Stats.Running.of_raw
           [| 4.0; 0.1; 1e-300; Float.neg_infinity; Float.infinity; 2.5 |]);
    probe_err = None;
    counters = None;
  }

let metrics_err =
  {
    Refine.Eval.sqnr_db = None;
    total_bits = 8;
    overflow_count = 0;
    probe_err_max = -0.0;
    probe_values = None;
    probe_err =
      Some
        (Stats.Err_stats.of_raw
           [|
             2.0; -0.5; 0.25; -1.0; 0.0; 1.0;
             2.0; 1.0 /. 3.0; Float.nan; 5e-324; 0.75; 1e300;
           |]);
    counters = None;
  }

let payload_values =
  "fxmetrics 1\n\
   sqnr nan\n\
   bits 42\n\
   ovf 3\n\
   errmax infinity\n\
   pv 0x1p+2 0x1.999999999999ap-4 0x1.56e1fc2f8f359p-997 -infinity infinity 0x1.4p+1\n\
   pe none"

let payload_err =
  "fxmetrics 1\n\
   sqnr none\n\
   bits 8\n\
   ovf 0\n\
   errmax -0x0p+0\n\
   pv none\n\
   pe 0x1p+1 -0x1p-1 0x1p-2 -0x1p+0 0x0p+0 0x1p+0 0x1p+1 0x1.5555555555555p-2 nan 0x0.0000000000001p-1022 0x1.8p-1 0x1.7e43c8800759cp+996"

let test_metrics_payload () =
  check string_t "fxmetrics 1, value monitor" payload_values
    (Serve.Codec.encode metrics_values);
  check string_t "fxmetrics 1, error monitor" payload_err
    (Serve.Codec.encode metrics_err);
  List.iter
    (fun payload ->
      match Serve.Codec.decode payload with
      | Some m -> check string_t "decode re-encodes" payload (Serve.Codec.encode m)
      | None -> Alcotest.fail "pinned payload did not decode")
    [ payload_values; payload_err ]

let test_cache_entry () =
  let dir = scratch () in
  let cache = Serve.Cache.create ~dir () in
  Serve.Cache.insert cache "pinkey" (Serve.Codec.encode metrics_values);
  check string_t "fxcache2 entry"
    ("fxcache2 140 bd350b54\n" ^ payload_values)
    (read (Filename.concat dir "pinkey.entry"));
  let reopened = Serve.Cache.create ~dir () in
  check (Alcotest.option string_t) "entry reloads" (Some payload_values)
    (Serve.Cache.lookup reopened "pinkey")

let wave_outcomes =
  [
    ( {
        Sweep.Candidate.id = 0;
        assigns =
          [
            { Sweep.Candidate.signal = "x"; n = 8; f = 6 };
            { Sweep.Candidate.signal = "acc y"; n = 12; f = 9 };
          ];
        stim_seed = 3;
        uniform_f = Some 6;
      },
      Ok metrics_err );
    ( { Sweep.Candidate.id = 1; assigns = []; stim_seed = 4; uniform_f = None },
      Error ("Failure(\"boom \\\"q\\\"\")\ttab", 2) );
  ]

let wave_record =
  "fxwave2 282 0e9be916\n\
   1 2 112ec29427ffb7510af9b65386b4d1e1\n\
   ok \"fxmetrics 1\\nsqnr none\\nbits 8\\novf 0\\nerrmax -0x0p+0\\npv none\\npe 0x1p+1 -0x1p-1 0x1p-2 -0x1p+0 0x0p+0 0x1p+0 0x1p+1 0x1.5555555555555p-2 nan 0x0.0000000000001p-1022 0x1.8p-1 0x1.7e43c8800759cp+996\"\n\
   err 2 \"Failure(\\\"boom \\\\\\\"q\\\\\\\"\\\")\\ttab\"\n"

let test_wave_record () =
  let dir = scratch () in
  let cp = Sweep.Checkpoint.create ~dir ~key:"pin" () in
  Sweep.Checkpoint.record cp ~wave:1 wave_outcomes;
  check string_t "fxwave2 record" wave_record
    (read (Filename.concat (Sweep.Checkpoint.dir cp) "wave-000001.wv"));
  let resumed = Sweep.Checkpoint.create ~resume:true ~dir ~key:"pin" () in
  match Sweep.Checkpoint.lookup resumed ~wave:1 (List.map fst wave_outcomes) with
  | None -> Alcotest.fail "pinned wave did not replay"
  | Some outcomes ->
      List.iter2
        (fun (_, expected) (_, got) ->
          match (expected, got) with
          | Ok a, Ok b ->
              check string_t "metrics replay" (Serve.Codec.encode a)
                (Serve.Codec.encode b)
          | Error a, Error b ->
              check Alcotest.(pair string int) "error replay" a b
          | _ -> Alcotest.fail "outcome kind changed on replay")
        wave_outcomes outcomes

let intent_record = "fxintent2 28 241ec315\n2\n{\"op\": \"ping\", \"id\": \"a\"}\n"
let quarantined_record =
  "fxintent2 54 6a64c669\n\
   2\n\
   {\"op\": \"ping\", \"id\": \"a\"}\n\
   reason \"gave up: \\\"x\\\"\\n\"\n"

let test_intent_records () =
  let dir = scratch () in
  let j = Serve.Journal.create ~dir in
  let e =
    {
      Serve.Journal.name = "pin-000001";
      attempts = 2;
      line = "{\"op\": \"ping\", \"id\": \"a\"}";
    }
  in
  Serve.Journal.record_intent j e;
  check string_t "fxintent2 record" intent_record
    (read (Filename.concat dir "job-pin-000001.intent"));
  check Alcotest.bool "intent pending" true
    (Serve.Journal.pending (Serve.Journal.create ~dir) = [ e ]);
  Serve.Journal.quarantine j e ~reason:"gave up: \"x\"\n";
  check string_t "quarantined record" quarantined_record
    (read (Filename.concat dir "job-pin-000001.quarantined"));
  check Alcotest.bool "intent removed" false
    (Sys.file_exists (Filename.concat dir "job-pin-000001.intent"))

let wave_record_v1 =
  "fxwave1 1 2\n\
   c 0 3 6 2\n\
   a 8 6 x\n\
   a 12 9 acc y\n\
   ok none 8 0 -0x0p+0\n\
   pv none\n\
   pe 0x1p+1 -0x1p-1 0x1p-2 -0x1p+0 0x0p+0 0x1p+0 0x1p+1 0x1.5555555555555p-2 nan 0x0.0000000000001p-1022 0x1.8p-1 0x1.7e43c8800759cp+996\n\
   c 1 4 - 0\n\
   err 2 \"Failure(\\\"boom \\\\\\\"q\\\\\\\"\\\")\\ttab\"\n\
   end\n"

let write path bytes =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes)

(* A record from before the checked frame reads as not journaled: the
   wave costs one re-evaluation. *)
let test_wave_record_v1 () =
  let dir = scratch () in
  let cp = Sweep.Checkpoint.create ~dir ~key:"pin" () in
  write (Filename.concat (Sweep.Checkpoint.dir cp) "wave-000001.wv")
    wave_record_v1;
  let resumed = Sweep.Checkpoint.create ~resume:true ~dir ~key:"pin" () in
  check Alcotest.int "nothing journaled" 0 (Sweep.Checkpoint.waves resumed);
  check Alcotest.bool "no replay" true
    (Sweep.Checkpoint.lookup resumed ~wave:1 (List.map fst wave_outcomes)
    = None)

let intent_record_v1 = "fxintent1 2\n{\"op\": \"ping\", \"id\": \"a\"}\n"
let quarantined_record_v1 =
  "fxintent1 2\n\
   {\"op\": \"ping\", \"id\": \"a\"}\n\
   reason \"gave up: \\\"x\\\"\\n\"\n"

(* An intent from before the checked frame takes the unparsable-intent
   path: quarantined, its raw bytes kept, never re-run.  An old
   quarantined record still counts as quarantined. *)
let test_intent_records_v1 () =
  let dir = scratch () in
  write (Filename.concat dir "job-pin-000001.intent") intent_record_v1;
  write (Filename.concat dir "job-pin-000002.quarantined") quarantined_record_v1;
  let j = Serve.Journal.create ~dir in
  check Alcotest.bool "not pending" true (Serve.Journal.pending j = []);
  check (Alcotest.list string_t) "both quarantined"
    [ "pin-000001"; "pin-000002" ]
    (Serve.Journal.quarantined j);
  check (Alcotest.option string_t) "raw bytes kept"
    (Some ("0\n" ^ intent_record_v1 ^ "\nreason \"unparsable intent record\"\n"))
    (Store.Durable.read_record ~magic:"fxintent2"
       (Filename.concat dir "job-pin-000001.quarantined"))

(* --- the primitives ------------------------------------------------------- *)

let test_write_atomic_leaves_no_temp () =
  let dir = scratch () in
  let path = Filename.concat dir "f" in
  Store.Durable.write_atomic path "one";
  Store.Durable.write_atomic path "two";
  check string_t "last write wins" "two" (Store.Durable.read_file path);
  check (Alcotest.list string_t) "only the target remains" [ "f" ]
    (Store.Durable.readdir_sorted dir);
  let missing = Filename.concat (Filename.concat dir "nodir") "g" in
  check Alcotest.bool "write into a missing dir raises" true
    (match Store.Durable.write_atomic missing "x" with
    | () -> false
    | exception (Unix.Unix_error _ | Sys_error _) -> true);
  check (Alcotest.list string_t) "failed write leaves nothing" [ "f" ]
    (Store.Durable.readdir_sorted dir)

(* The frame's CRC-32: the IEEE 802.3 check vector, and a strictly
   spelled checksum. *)
let test_crc32_vector () =
  let path = Filename.concat (scratch ()) "vector" in
  Store.Durable.write_record ~magic:"m" path "123456789";
  check string_t "crc32(\"123456789\")" "m 9 cbf43926\n123456789" (read path);
  check (Alcotest.option string_t) "checksum round-trips" (Some "123456789")
    (Store.Durable.read_record ~magic:"m" path);
  let refused header =
    write path (header ^ "\n123456789");
    Store.Durable.read_record ~magic:"m" path = None
  in
  check Alcotest.bool "rejects short" true (refused "m 9 cbf4392");
  check Alcotest.bool "rejects uppercase" true (refused "m 9 CBF43926");
  check Alcotest.bool "rejects non-hex" true (refused "m 9 cbf4392g")

(* Whole-payload decodes of [payload_values] with one line swapped. *)
let test_monitor_lines_strict () =
  let decode = Store.Monitor.decode in
  let swap i line =
    String.concat "\n"
      (List.mapi
         (fun j l -> if j = i then line else l)
         (String.split_on_char '\n' payload_values))
  in
  (match decode payload_values with
  | Some m ->
      check string_t "pv round-trips" payload_values (Store.Monitor.encode m)
  | None -> Alcotest.fail "pv payload did not decode");
  check Alcotest.bool "none" true
    (Option.map
       (fun m -> m.Refine.Eval.probe_values = None)
       (decode (swap 5 "pv none"))
    = Some true);
  List.iter
    (fun line -> check Alcotest.bool line true (decode (swap 5 line) = None))
    [ "pv"; "pv "; "pe none"; "pv 0x1p+0"; "pv 1 2 3 4 5 6 7"; "pv 1 2 3 4 5 x" ];
  check Alcotest.bool "pe arity" true (decode (swap 6 "pe 1 2 3 4 5 6") = None);
  check Alcotest.bool "opt none" true (decode (swap 1 "sqnr none") <> None);
  check Alcotest.bool "opt garbage" true (decode (swap 1 "sqnr nope") = None)

let suite =
  ( "store",
    [
      Alcotest.test_case "pinned fxmetrics payloads" `Quick test_metrics_payload;
      Alcotest.test_case "pinned fxcache2 entry" `Quick test_cache_entry;
      Alcotest.test_case "pinned fxwave2 record" `Quick test_wave_record;
      Alcotest.test_case "pinned fxintent2 records" `Quick test_intent_records;
      Alcotest.test_case "pinned fxwave1 record" `Quick test_wave_record_v1;
      Alcotest.test_case "pinned fxintent1 records" `Quick test_intent_records_v1;
      Alcotest.test_case "write_atomic leaves no temp" `Quick
        test_write_atomic_leaves_no_temp;
      Alcotest.test_case "crc32 vector" `Quick test_crc32_vector;
      Alcotest.test_case "monitor lines strict" `Quick test_monitor_lines_strict;
    ] )
