(* Fixture: a stand-in profile store whose [mantissa] and
   [unsafe_mantissa] match the default r13_mantissa_producers patterns
   "Lattice.mantissa" and "Lattice.unsafe_mantissa" — each read yields a
   mantissa tagged with the profile it came from, whether or not the
   access is bounds-checked. *)

type t = { values : float array }

let of_array values = { values }
let mantissa t u = t.values.(u)
let unsafe_mantissa t u = Array.unsafe_get t.values u
