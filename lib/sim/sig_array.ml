(** Signal arrays — the paper's [sigarray] and [regarray] (§2.3).

    An array of independently monitored signals sharing a base name and
    (optionally) a common dtype; elements are reported as [name[i]].
    The delay lines and FIR accumulator chains of the examples are
    declared with these. *)

type t = { base : string; elems : Signal.t array }

let make_named env ~kind ?dtype base n =
  if n < 1 then invalid_arg "Sig_array: length must be >= 1";
  let mk i =
    let name = Printf.sprintf "%s[%d]" base i in
    match kind with
    | Env.Comb -> Signal.create env ?dtype name
    | Env.Registered -> Signal.create_reg env ?dtype name
  in
  { base; elems = Array.init n mk }

(** [create env name n] — array of combinational signals ([sigarray]). *)
let create env ?dtype name n = make_named env ~kind:Env.Comb ?dtype name n

(** [create_reg env name n] — array of registered signals ([regarray]). *)
let create_reg env ?dtype name n =
  make_named env ~kind:Env.Registered ?dtype name n

let length t = Array.length t.elems

(** [get t i] — the element signal (monitored operations go through
    {!Signal} / {!Ops} as usual). *)
let get t i =
  if i < 0 || i >= Array.length t.elems then
    invalid_arg (Printf.sprintf "Sig_array.get: %s[%d] out of bounds" t.base i);
  t.elems.(i)

(** Infix-friendly alias: [arr.%(i)]. *)
let ( .%() ) = get

let iter f t = Array.iter f t.elems
let iteri f t = Array.iteri f t.elems
let to_list t = Array.to_list t.elems

(** Apply a dtype to every element. *)
let set_dtype t dt = Array.iter (fun s -> Signal.set_dtype s dt) t.elems

(** Annotate every element with the same explicit range. *)
let range t lo hi = Array.iter (fun s -> Signal.range s lo hi) t.elems

(** Initialize elements from a float array (coefficient loading). *)
let init_values t values =
  if Array.length values <> Array.length t.elems then
    invalid_arg "Sig_array.init_values: length mismatch";
  Array.iteri (fun i v -> Signal.init t.elems.(i) v) values
