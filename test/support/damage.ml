(* Seeded damage to a durable record file, for the torn-record fuzzers:
   a truncation to a strictly shorter prefix, a single flipped bit, or
   appended bytes — the three ways a frame's length and checksum must
   catch. *)

type t = Truncate of int | Flip of int | Append of int

let gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun p -> Truncate p) nat;
        map (fun p -> Flip p) (int_bound (1 lsl 20));
        map (fun p -> Append (1 + (p mod 7))) nat;
      ])

let print = function
  | Truncate p -> Printf.sprintf "truncate %d" p
  | Flip p -> Printf.sprintf "flip bit %d" p
  | Append n -> Printf.sprintf "append %d" n

let apply d raw =
  let len = String.length raw in
  match d with
  | Truncate p -> String.sub raw 0 (p mod len)
  | Flip p ->
      let b = Bytes.of_string raw in
      let i = p / 8 mod len in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (p mod 8))));
      Bytes.to_string b
  | Append n -> raw ^ String.make n 'Z'

(* Damage the file at [path] in place; the damaged bytes. *)
let file d path =
  let raw = In_channel.with_open_bin path In_channel.input_all in
  let damaged = apply d raw in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc damaged);
  damaged
