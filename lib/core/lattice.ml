type values =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type exponents =
  (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Entry u is values.(u) * 2^exponents.(u), the mantissa in [0.5, 1)
   (or zero, with exponent 0). *)
type t = {
  values : values;
  exponents : exponents;
  capacity : int;
  mutable stride : int;
}

let create ?(stride = 1) ~capacity () =
  if capacity < 0 then invalid_arg "Lattice.create: negative capacity";
  if stride < 1 then invalid_arg "Lattice.create: stride < 1";
  let values =
    Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (capacity + 1)
  in
  Bigarray.Array1.fill values 0.;
  let exponents =
    Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (capacity + 1)
  in
  Bigarray.Array1.fill exponents 0l;
  (* lint: alloc=record -- the result lattice itself, one per combine *)
  { values; exponents; capacity; stride }

let capacity t = t.capacity
let values t = t.values
let exponents t = t.exponents
let stride t = t.stride
let mantissa t u = Bigarray.Array1.get t.values u
let unsafe_mantissa t u = Bigarray.Array1.unsafe_get t.values u
let exponent t u = Int32.to_int (Bigarray.Array1.get t.exponents u)

(* frexp's exponent of a normal [x], read off the bit pattern so no
   tuple is allocated.  (Convolution's kernels keep their own inlined
   copy: a call across modules would box its argument.) *)
let binary_exponent x =
  (Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float x) 52)
  land 0x7ff)
  - 1022

let set_scaled t u m e =
  if Float.abs m > 0. then begin
    let s = binary_exponent m in
    Bigarray.Array1.set t.values u (Float.ldexp m (-s));
    Bigarray.Array1.set t.exponents u (Int32.of_int (e + s))
  end
  else begin
    Bigarray.Array1.set t.values u 0.;
    Bigarray.Array1.set t.exponents u 0l
  end

let set t u x = set_scaled t u x 0

let reset ?(stride = 1) t =
  if stride < 1 then invalid_arg "Lattice.reset: stride < 1";
  Bigarray.Array1.fill t.values 0.;
  Bigarray.Array1.fill t.exponents 0l;
  t.stride <- stride
