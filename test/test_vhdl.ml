(* Unit tests: Vhdl — AST printing, entity emission, SFG mapping. *)

open Fixrefine

let check = Alcotest.check
let bool_t = Alcotest.bool
let string_t = Alcotest.string

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* --- expression printing ------------------------------------------------- *)

let test_expr_printing () =
  let open Vhdl.Ast in
  check string_t "binop" "a + b" (Vhdl.Emit.expr (id "a" +^ id "b"));
  check string_t "resize" "resize(x, 8)" (Vhdl.Emit.expr (resize (id "x") 8));
  check string_t "shift" "shift_left(x, 2)"
    (Vhdl.Emit.expr (shift_left_e (id "x") 2));
  check string_t "slice" "x(7 downto 0)" (Vhdl.Emit.expr (Slice (id "x", 7, 0)));
  check string_t "when" "a when c else b"
    (Vhdl.Emit.expr (When (id "c", id "a", id "b")))

let test_entity_skeleton () =
  let e =
    {
      Vhdl.Ast.entity_name = "dut";
      ports =
        [
          { Vhdl.Ast.port_name = "i_x"; dir = Vhdl.Ast.In; port_width = 8 };
          { Vhdl.Ast.port_name = "o_y"; dir = Vhdl.Ast.Out; port_width = 10 };
        ];
      signals = [ { Vhdl.Ast.sig_name = "s_t"; width = 12; comment = Some "<12,8,tc>" } ];
      body = [ Vhdl.Ast.Assign ("o_y", Vhdl.Ast.id "s_t") ];
      processes =
        [
          {
            Vhdl.Ast.label = "registers";
            clock = "clk";
            reset = Some "rst";
            assigns = [ ("s_t", Vhdl.Ast.id "i_x") ];
          };
        ];
    }
  in
  let text = Vhdl.Emit.entity e in
  check bool_t "library" true (contains "use ieee.numeric_std.all" text);
  check bool_t "entity" true (contains "entity dut is" text);
  check bool_t "in port" true (contains "i_x : in  signed(7 downto 0)" text);
  check bool_t "out port" true (contains "o_y : out signed(9 downto 0)" text);
  check bool_t "signal comment" true (contains "-- <12,8,tc>" text);
  check bool_t "clocked" true (contains "rising_edge(clk)" text);
  check bool_t "reset branch" true (contains "if rst = '1' then" text);
  check bool_t "sat helper" true (contains "function sat" text)

(* --- SFG mapping ---------------------------------------------------------- *)

let fir_graph () =
  let g = Sfg.Graph.create () in
  let _, y = Dsp.Fir.to_sfg g ~coefs:[| 0.25; 0.5; 0.25 |] ~input_range:(-1.0, 1.0) in
  Sfg.Graph.mark_output g "y" y;
  g

let test_of_sfg_fir () =
  let g = fir_graph () in
  let formats = Vhdl.Of_sfg.uniform_formats ~n:12 ~f:8 in
  let e = Vhdl.Of_sfg.entity ~name:"fir" ~formats g in
  let text = Vhdl.Emit.entity e in
  check bool_t "input port" true (contains "i_x" text);
  check bool_t "output port" true (contains "o_y" text);
  check bool_t "register process" true (contains "rising_edge" text);
  check bool_t "delay regs assigned in process" true
    (contains "s_d_0 <= " text);
  check bool_t "mult" true (contains "*" text)

let test_of_sfg_saturating_node () =
  let g = fir_graph () in
  let formats = Vhdl.Of_sfg.uniform_formats ~n:12 ~f:8 in
  let e =
    Vhdl.Of_sfg.entity
      ~saturating:(fun n -> String.equal n "v[3]")
      ~name:"fir" ~formats g
  in
  let text = Vhdl.Emit.entity e in
  check bool_t "sat call on v[3]" true (contains "s_v_3 <= sat(" text)

(* The testbench finds each port's vector through the entity's name
   rule: output v[3] is port o_v_3. *)
let test_testbench_bracketed_output () =
  let g = Sfg.Graph.create () in
  let _, y = Dsp.Fir.to_sfg g ~coefs:[| 0.25; 0.5; 0.25 |] ~input_range:(-1.0, 1.0) in
  Sfg.Graph.mark_output g "v[3]" y;
  let formats = Vhdl.Of_sfg.uniform_formats ~n:12 ~f:8 in
  let dut = Vhdl.Of_sfg.entity ~name:"fir" ~formats g in
  let vectors =
    List.init 3 (fun i ->
        { Vhdl.Testbench.inputs = [ ("x", i) ]; expected = [ ("v[3]", 2 * i) ] })
  in
  let text = Vhdl.Testbench.emit ~latency:1 ~dut ~formats vectors in
  check bool_t "golden rom" true (contains "constant gold_o_v_3 " text);
  check bool_t "codes" true (contains "2 => to_signed(4, 12)" text);
  check bool_t "assertion" true (contains "assert o_v_3 = gold_o_v_3" text)

let test_identifier_clash_raises () =
  let g = Sfg.Graph.create () in
  let a = Sfg.Graph.input g "a[0]" ~lo:(-1.0) ~hi:1.0 in
  let b = Sfg.Graph.input g "A_0" ~lo:(-1.0) ~hi:1.0 in
  Sfg.Graph.mark_output g "y" (Sfg.Graph.add g ~name:"y" a b);
  let formats = Vhdl.Of_sfg.uniform_formats ~n:12 ~f:8 in
  match Vhdl.Of_sfg.entity ~name:"clash" ~formats g with
  | _ -> Alcotest.fail "a[0] and A_0 share s_a_0"
  | exception Invalid_argument m ->
      check bool_t "names both nodes" true
        (contains "\"a[0]\"" m && contains "\"A_0\"" m)

let test_of_sfg_quantize_modes () =
  let g = Sfg.Graph.create () in
  let x = Sfg.Graph.input g "x" ~lo:(-1.0) ~hi:1.0 in
  let dt_round = Fixpt.Dtype.make "r" ~n:8 ~f:4 () in
  let dt_floor =
    Fixpt.Dtype.make "f" ~n:8 ~f:4 ~round:Fixpt.Round_mode.Floor
      ~overflow:Fixpt.Overflow_mode.Saturate ()
  in
  let q1 = Sfg.Graph.quantize g ~name:"q_round" dt_round x in
  let q2 = Sfg.Graph.quantize g ~name:"q_floor" dt_floor x in
  Sfg.Graph.mark_output g "a" q1;
  Sfg.Graph.mark_output g "b" q2;
  let formats = Vhdl.Of_sfg.uniform_formats ~n:12 ~f:8 in
  let formats name =
    match name with
    | "q_round" | "q_floor" -> Fixpt.Qformat.make ~n:8 ~f:4 Fixpt.Sign_mode.Tc
    | n -> formats n
  in
  let text = Vhdl.Emit.entity (Vhdl.Of_sfg.entity ~name:"q" ~formats g) in
  (* round adds the half-lsb constant before truncation *)
  check bool_t "round-half logic" true (contains "+ 1" text);
  (* floor+saturate goes through sat() *)
  check bool_t "saturation on floor quantizer" true
    (contains "s_q_floor <= sat(" text)

let test_of_sfg_select () =
  let g = Sfg.Graph.create () in
  let x = Sfg.Graph.input g "x" ~lo:(-1.0) ~hi:1.0 in
  let one = Sfg.Graph.const g ~name:"one" 1.0 in
  let m_one = Sfg.Graph.const g ~name:"m_one" (-1.0) in
  let y = Sfg.Graph.select g ~name:"y" x one m_one in
  Sfg.Graph.mark_output g "y" y;
  let text =
    Vhdl.Emit.entity
      (Vhdl.Of_sfg.entity ~name:"slicer"
         ~formats:(Vhdl.Of_sfg.uniform_formats ~n:8 ~f:4)
         g)
  in
  check bool_t "conditional" true (contains "when" text)

let test_of_sfg_div_unsupported () =
  let g = Sfg.Graph.create () in
  let x = Sfg.Graph.input g "x" ~lo:1.0 ~hi:2.0 in
  let y = Sfg.Graph.div g ~name:"y" x x in
  Sfg.Graph.mark_output g "y" y;
  check bool_t "raises Unsupported" true
    (try
       ignore
         (Vhdl.Of_sfg.entity ~name:"d"
            ~formats:(Vhdl.Of_sfg.uniform_formats ~n:8 ~f:4)
            g);
       false
     with Vhdl.Of_sfg.Unsupported _ -> true)

let test_of_sfg_name_sanitization () =
  let g = fir_graph () in
  let text =
    Vhdl.Emit.entity
      (Vhdl.Of_sfg.entity ~name:"fir"
         ~formats:(Vhdl.Of_sfg.uniform_formats ~n:8 ~f:4)
         g)
  in
  check bool_t "no brackets leak" true (not (contains "[" text));
  List.iter
    (fun (raw, id) ->
      check Alcotest.string raw id (Vhdl.Of_sfg.vhdl_name raw))
    [
      ("s_d[0]", "s_d_0");
      ("s_d[0]_q", "s_d_0_q");
      ("s_mul~1", "s_mul_1");
      ("o_b*s", "o_b_s");
      ("s_w-y", "s_w_y");
      ("s_b.range", "s_b_range");
    ]

let test_formats_of_types () =
  let dt = Fixpt.Dtype.make "t" ~n:9 ~f:7 () in
  let f = Vhdl.Of_sfg.formats_of_types [ ("a", dt) ] in
  check bool_t "mapped" true (Fixpt.Qformat.equal (f "a") (Fixpt.Dtype.fmt dt));
  check bool_t "default for unknown" true (Fixpt.Qformat.n (f "zzz") = 16)

(* Elaboration safety at wide widths: VHDL universal integers are only
   guaranteed 32 bits, so the emitted text must never clamp through a
   [2 ** (width - 1)] literal — the sat() bounds are bit aggregates.
   Also pins down that the dead clk port stub stayed dead. *)
let test_wide_width_no_power_literal () =
  List.iter
    (fun n ->
      let g = fir_graph () in
      let formats = Vhdl.Of_sfg.uniform_formats ~n ~f:(n - 4) in
      let e =
        Vhdl.Of_sfg.entity
          ~saturating:(fun _ -> true)
          ~name:(Printf.sprintf "fir%d" n)
          ~formats g
      in
      let text = Vhdl.Emit.entity e in
      let label fmt = Printf.sprintf fmt n in
      check bool_t (label "n=%d emits sat calls") true (contains "sat(" text);
      check bool_t
        (label "n=%d no power-of-two literal")
        false
        (contains "2 ** " text);
      check bool_t
        (label "n=%d aggregate max bound")
        true
        (contains "('0', others => '1')" text);
      check bool_t
        (label "n=%d aggregate min bound")
        true
        (contains "('1', others => '0')" text);
      check bool_t
        (label "n=%d declares wide signal")
        true
        (contains (Printf.sprintf "signed(%d downto 0)" (n - 1)) text))
    [ 32; 48; 63 ]

let test_const_mantissa () =
  (* constants become to_signed(mant, w) with mant = c / step *)
  let g = Sfg.Graph.create () in
  let c = Sfg.Graph.const g ~name:"k" 0.5 in
  Sfg.Graph.mark_output g "k" c;
  let text =
    Vhdl.Emit.entity
      (Vhdl.Of_sfg.entity ~name:"c"
         ~formats:(Vhdl.Of_sfg.uniform_formats ~n:8 ~f:4)
         g)
  in
  (* 0.5 at f=4 is mantissa 8 *)
  check bool_t "to_signed(8, 8)" true (contains "to_signed(8, 8)" text)

let suite =
  ( "vhdl",
    [
      Alcotest.test_case "expr printing" `Quick test_expr_printing;
      Alcotest.test_case "entity skeleton" `Quick test_entity_skeleton;
      Alcotest.test_case "of_sfg fir" `Quick test_of_sfg_fir;
      Alcotest.test_case "of_sfg saturation" `Quick
        test_of_sfg_saturating_node;
      Alcotest.test_case "of_sfg quantize modes" `Quick
        test_of_sfg_quantize_modes;
      Alcotest.test_case "of_sfg select" `Quick test_of_sfg_select;
      Alcotest.test_case "of_sfg div unsupported" `Quick
        test_of_sfg_div_unsupported;
      Alcotest.test_case "of_sfg sanitization" `Quick
        test_of_sfg_name_sanitization;
      Alcotest.test_case "formats_of_types" `Quick test_formats_of_types;
      Alcotest.test_case "wide widths elaborate-safe" `Quick
        test_wide_width_no_power_literal;
      Alcotest.test_case "const mantissa" `Quick test_const_mantissa;
      Alcotest.test_case "testbench bracketed output" `Quick
        test_testbench_bracketed_output;
      Alcotest.test_case "identifier clash raises" `Quick
        test_identifier_clash_raises;
    ] )
