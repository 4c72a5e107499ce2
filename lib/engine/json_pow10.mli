(** Power-of-ten table of the shortest round-trip float printer in
    {!Json}, generated from exact integers by [scripts/gen_pow10.py]. *)

val k_min : int
(** Smallest decimal exponent in the table. *)

val k_max : int
(** Largest decimal exponent in the table. *)

val hex : string
(** One entry per [k] in [[k_min, k_max]]: [g = floor (10^-k 2^-r) + 1]
    with [2^125 <= g < 2^126], as 32 hex digits (the high 63 bits, then
    the low 63 bits, 16 digits each). *)
