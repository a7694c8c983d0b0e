(* Conformance: emitted VHDL for the small FIR flowgraph.

   The byte-exact comparison against golden/fir_{wrap,sat,tb}.vhd is
   part of Oracle.Golden.check (conf_golden); here we pin down the
   structural properties those files must keep — so an intentional
   regeneration that silently drops saturation logic or the testbench
   assertions still fails a named test. *)

open Fixrefine

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let cases = lazy (Oracle.Golden.vhdl_cases ())
let case name = List.assoc name (Lazy.force cases)

let test_all_cases_present () =
  List.iter
    (fun f ->
      Alcotest.(check bool) (Printf.sprintf "%s generated" f) true
        (List.mem_assoc f (Lazy.force cases)))
    [ "fir_wrap.vhd"; "fir_sat.vhd"; "fir_tb.vhd" ]

let test_wrap_entity () =
  let text = case "fir_wrap.vhd" in
  Alcotest.(check bool) "entity" true (contains "entity fir_wrap is" text);
  Alcotest.(check bool) "numeric_std" true
    (contains "use ieee.numeric_std.all" text);
  Alcotest.(check bool) "input port" true (contains "i_x" text);
  Alcotest.(check bool) "output port" true (contains "o_y" text);
  Alcotest.(check bool) "registered delay line" true
    (contains "rising_edge" text);
  (* wrap mode: the accumulator chain resizes, it never saturates *)
  Alcotest.(check bool) "no sat() on v-chain" false
    (contains "s_v_1 <= sat(" text || contains "s_v_2 <= sat(" text)

let test_sat_entity () =
  let text = case "fir_sat.vhd" in
  Alcotest.(check bool) "entity" true (contains "entity fir_sat is" text);
  Alcotest.(check bool) "sat helper emitted" true (contains "function sat" text);
  (* saturate mode marks the whole accumulator chain *)
  Alcotest.(check bool) "sat() on v-chain" true (contains "<= sat(" text)

let test_wrap_sat_differ_only_in_msb_logic () =
  let wrap = case "fir_wrap.vhd" and sat = case "fir_sat.vhd" in
  Alcotest.(check bool) "texts differ" false (String.equal wrap sat);
  (* same interface either way *)
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " in both") true
        (contains needle wrap && contains needle sat))
    [ "i_x : in "; "o_y : out "; "rising_edge(clk)" ]

let test_testbench_structure () =
  let text = case "fir_tb.vhd" in
  Alcotest.(check bool) "tb entity" true (contains "entity fir_dut_tb" text);
  Alcotest.(check bool) "instantiates dut" true
    (contains "entity work.fir_dut" text);
  Alcotest.(check bool) "stimulus rom" true (contains "constant stim_i_x" text);
  Alcotest.(check bool) "golden rom" true (contains "constant gold_o_y" text);
  Alcotest.(check bool) "self-checking assertion" true
    (contains "assert o_y = gold_o_y" text);
  Alcotest.(check bool) "16 vectors checked" true
    (contains "16 vectors checked" text)

let test_generation_deterministic () =
  let again = Oracle.Golden.vhdl_cases () in
  List.iter
    (fun (f, text) ->
      Alcotest.(check string)
        (Printf.sprintf "%s deterministic" f)
        text
        (List.assoc f again))
    (Lazy.force cases)

(* VHDL-93 basic identifier: letter { [underline] letter_or_digit } *)
let is_basic_identifier s =
  let letter = function 'a' .. 'z' | 'A' .. 'Z' -> true | _ -> false in
  let digit = function '0' .. '9' -> true | _ -> false in
  let n = String.length s in
  let rec ok i =
    i = n
    || (letter s.[i] || digit s.[i]
       || (s.[i] = '_' && i + 1 < n && s.[i + 1] <> '_'))
       && ok (i + 1)
  in
  n > 0 && letter s.[0] && ok 1

(* The words of a VHDL text, outside comments and string literals, split
   at the delimiters the emitter writes; a word that starts with a digit
   is a decimal literal, every other word an identifier. *)
let bad_words text =
  let code line =
    let line =
      match String.index_opt line '-' with
      | Some i when i + 1 < String.length line && line.[i + 1] = '-' ->
          String.sub line 0 i
      | _ -> line
    in
    (* the emitter writes no '"' inside a string literal *)
    String.split_on_char '"' line
    |> List.filteri (fun i _ -> i mod 2 = 0)
    |> String.concat " "
  in
  String.split_on_char '\n' text
  |> List.concat_map (fun line ->
         String.split_on_char ' ' (code line)
         |> List.concat_map (fun w ->
                let w =
                  String.map
                    (function
                      | '(' | ')' | ';' | ':' | ',' | '<' | '=' | '>' | '+'
                      | '-' | '*' | '/' | '&' | '\'' | '.' | '\t' ->
                          ' '
                      | c -> c)
                    w
                in
                String.split_on_char ' ' w))
  |> List.filter (fun w ->
         w <> ""
         &&
         match w.[0] with
         | '0' .. '9' -> not (String.for_all (fun c -> c >= '0' && c <= '9') w)
         | _ -> not (is_basic_identifier w))

let check_identifiers what text =
  match bad_words text with
  | [] -> ()
  | bad ->
      Alcotest.failf "%s: not VHDL-93 identifiers: %s" what
        (String.concat " " (List.sort_uniq compare bad))

let test_identifiers_golden () =
  Alcotest.(check bool) "grammar rejects the old names" true
    (List.for_all
       (fun w -> not (is_basic_identifier w))
       [ "s_d_0_"; "s_d_0__q"; "s_mul~1"; "_s"; "1s" ]);
  List.iter (fun (f, text) -> check_identifiers f text) (Lazy.force cases)

(* examples/fir_to_vhdl writes its entity and testbench into the
   directory it runs in *)
let test_identifiers_fir_to_vhdl () =
  let exe = Filename.concat (Sys.getcwd ()) "../../examples/fir_to_vhdl.exe" in
  let dir = Filename.temp_dir "fir_to_vhdl" "" in
  let read f = In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        [ "fir_refined.vhd"; "fir_refined_tb.vhd" ];
      Sys.rmdir dir)
    (fun () ->
      Alcotest.(check int) "fir_to_vhdl exits 0" 0
        (Sys.command
           (Printf.sprintf "cd %s && %s > /dev/null" (Filename.quote dir)
              (Filename.quote exe)));
      check_identifiers "fir_refined.vhd" (read "fir_refined.vhd");
      check_identifiers "fir_refined_tb.vhd" (read "fir_refined_tb.vhd"))

let suite =
  ( "conformance.vhdl",
    [
      Alcotest.test_case "all golden cases present" `Quick
        test_all_cases_present;
      Alcotest.test_case "wrap entity structure" `Quick test_wrap_entity;
      Alcotest.test_case "saturate entity structure" `Quick test_sat_entity;
      Alcotest.test_case "wrap vs saturate interface" `Quick
        test_wrap_sat_differ_only_in_msb_logic;
      Alcotest.test_case "testbench structure" `Quick test_testbench_structure;
      Alcotest.test_case "emission deterministic" `Quick
        test_generation_deterministic;
      Alcotest.test_case "golden identifiers are VHDL-93" `Quick
        test_identifiers_golden;
      Alcotest.test_case "fir_to_vhdl identifiers are VHDL-93" `Quick
        test_identifiers_fir_to_vhdl;
    ] )
