(** Flat storage for the convolution solver's profiles, one binary
    exponent per entry.

    The class-factored form of Algorithm 1 (see DESIGN.md,
    "Class-factored convolution") works on one-dimensional profiles over
    used bandwidth [u = 0 .. capacity] rather than the full
    [(N1+1) x (N2+1)] lattice.  Each profile carries

    - a flat unboxed [float64] [Bigarray.Array1] of mantissas (no
      per-row indirection, GC-opaque, and safe for several domains to
      write disjoint index ranges of — the banded combine kernel relies
      on both properties);
    - a flat [int32] [Bigarray.Array1] of binary exponents, one per
      entry (GC-opaque and shareable across domains like the
      mantissas): entry [u] is
      [mantissa u * 2^(exponent u)].  A profile's entries can span
      thousands of decades (the root of an R=4 solve at cap 512 reaches
      [2^1985] while its entry 0 is 1), far beyond one double's range,
      and no entry is ever held relative to another's magnitude, so none
      is flushed however far its neighbours sit above it.  Nonzero
      mantissas are normalised to [\[0.5, 1)] (zero entries have
      exponent 0), so an entry's exponent alone bounds it: the kernels
      rebase and compare magnitudes on exponents;
    - a [stride]: entries are guaranteed zero except at multiples of it
      (a class of bandwidth [a] only populates multiples of [a]), which
      combine loops exploit. *)

type t

type values =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** A profile's mantissas: flat, unboxed and GC-opaque. *)

val create : ?stride:int -> capacity:int -> unit -> t
(** All-zero profile over [0 .. capacity] with every exponent [0].
    [stride] defaults to 1.
    @raise Invalid_argument if [capacity < 0] or [stride < 1]. *)

val capacity : t -> int

val values : t -> values
(** The mantissa store itself, entries [0 .. capacity], for kernels that
    hoist it out of their inner loops (its element type is statically
    known there, so accesses compile to plain loads and stores).
    Writing through it changes mantissas only: keeping [stride], the
    exponents and the [\[0.5, 1)] normalisation consistent with them is
    the caller's job. *)

type exponents =
  (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
(** A profile's binary exponents (32 bits: a third of each entry's
    storage, and room for lattices up to tens of millions of ports). *)

val exponents : t -> exponents
(** The exponent store itself, hoisted like {!values}. *)

val stride : t -> int

val mantissa : t -> int -> float
(** Bounds-checked read of entry [u]'s mantissa.
    @raise Invalid_argument out of bounds. *)

val unsafe_mantissa : t -> int -> float
(** Unchecked {!mantissa} for loops whose index ranges are established
    once per pass; out-of-range indices are undefined behaviour. *)

val exponent : t -> int -> int
(** Bounds-checked read of entry [u]'s binary exponent.
    @raise Invalid_argument out of bounds. *)

val set : t -> int -> float -> unit
(** [set t u x] stores [x] itself ([set_scaled t u x 0]).
    @raise Invalid_argument out of bounds. *)

val set_scaled : t -> int -> float -> int -> unit
(** [set_scaled t u m e] stores [m * 2^e], normalising the mantissa.
    [m] must be finite.
    @raise Invalid_argument out of bounds. *)

val reset : ?stride:int -> t -> unit
(** Zeroes every mantissa and exponent and resets [stride] to the given
    value (default 1), making the profile indistinguishable from a fresh
    {!create} of the same capacity — the recycling primitive behind
    [Convolution.Arena].
    @raise Invalid_argument if [stride < 1]. *)
