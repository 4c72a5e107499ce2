(* Fixture: cross-domain float arithmetic.  The first six functions are
   violations — log+linear addition (both orders), addition through a
   return-domain resolved across a call edge, re-exponentiation of an
   already-linear value, and ordering comparisons between mantissas of
   two different profiles (through the checked and the unchecked
   accessor — both are mantissa producers).  The ok_* functions stay
   within one domain and must lint clean. *)

let bad_add a b = Logspace.of_float a +. Logspace.to_float b
let bad_sub a b = Logspace.to_float a -. Logspace.of_float b

(* [lifted]'s return domain is log only through the call edge — the
   fixpoint, not the local pass, has to resolve it. *)
let lifted a = Logspace.of_float a
let indirect_add a b = lifted a +. Logspace.to_float b
let double_exp a = Logspace.exp_log (Logspace.to_float a)
let cross_cmp g h = Lattice.mantissa g 0 < Lattice.mantissa h 1
let cross_unsafe_cmp g h = Lattice.unsafe_mantissa g 0 < Lattice.mantissa h 1

let ok_add a b = Logspace.of_float a +. Logspace.of_float b
let ok_lin a b = Logspace.to_float a +. Logspace.to_float b
let ok_exp a = Logspace.exp_log (Logspace.of_float a)
let ok_cmp g = Lattice.mantissa g 0 < Lattice.mantissa g 1
let ok_unsafe_cmp g = Lattice.unsafe_mantissa g 0 < Lattice.unsafe_mantissa g 1
