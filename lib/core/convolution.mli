(** Algorithm 1: the convolution solution of the normalisation function
    (paper Section 5), in class-factored form over a balanced combine
    tree, with one binary exponent per lattice entry in place of the
    paper's Section 6 dynamic scaling.

    The paper's recurrence acts on [Q(N) = G(N)/(N1! N2!)].  Matching
    coefficients shows [G] factors per class:
    [G(n1,n2) = sum_u H(u) P(n1,u) P(n2,u)] with
    [H = h_1 * ... * h_R] a one-dimensional convolution over used
    bandwidth of per-class generating sequences (DESIGN.md,
    "Class-factored convolution").  Each factor is held corner-tilted
    in a flat {!Lattice} profile whose every entry carries its own
    binary exponent: the root [H] of an R=4 solve at cap 512 spans some
    600 decades, which no single scale per profile can hold, so the
    solver is exact at every capacity and every entry — [G(0,0) = 1]
    as much as the corner.  The factors are multiplied along one fixed
    shape — the balanced binary {!Factor_tree} — which {e is} the
    solver: a full
    solve combines bottom-up ([R - 1] combines), a re-solve after
    changing any subset of classes recombines only the changed leaves'
    root paths ([O(#changed log R)] combines), and both walk identical
    operand pairs in identical order, hence bit-identical results on
    every measure and [log G].

    The factorial scaling [Q = G/(N1! N2!)] makes every combine weight
    separable, [w1 w2 (u,v) = R(u) R(v) / R(u+v)] with
    [R(x) = 1/(P(N1,x) P(N2,x))], so a {!context} holds [O(cap)] tables
    of [R] instead of weight grids and the pairwise combine runs as a
    span-tiled unit-stride kernel over the {!Lattice} Bigarrays, with
    per-domain scratch arenas ({!Arena}) so a warmed-up re-solve loop
    performs no major-heap allocation; above a capacity threshold a
    single combine's output is split into deterministic row bands
    computed by parallel domains, bit-identical to the sequential kernel
    (DESIGN.md, "Combine kernels").

    Complexity: [O(cap^2 R)] time for a full solve with
    [cap = min N1 N2], [O(cap^2 #changed log R)] for a re-solve via
    {!solve_delta}, [O(cap R)] space (the tree holds [2R - 1] nodes, a
    context [O(cap)] tables). *)

(** Per-domain scratch for the combine hot path: two operand-sized
    arrays for rebased copies with their per-span exponents, and a free
    list of result-sized profiles recycled by
    [Factor_tree.update ~recycle] and the leave-one-out sweep.  Arenas
    are reached through a [Domain.DLS] key held by the context, so
    combines issued concurrently — by the banded kernel's own domains or
    an [Engine.Pool] mapper — never share scratch. *)
module Arena : sig
  type t

  val create : cap:int -> spans:int -> t
  (** Fresh arena for profiles of capacity [cap] rebased over [spans]
      spans, with an empty free list. *)

  val acquire : t -> cap:int -> stride:int -> Lattice.t
  (** Pops a recycled profile ({!Lattice.reset} to the all-zero state,
      indistinguishable from a fresh create) or creates one of capacity
      [cap]. *)

  val release : t -> Lattice.t -> unit
  (** Hands a profile back for reuse.  Ownership is never inferred: the
      caller must guarantee no live structure still references it. *)

  val created : t -> int
  (** Profiles this arena has created (misses). *)

  val reused : t -> int
  (** Acquisitions served from the free list (hits).  In a warmed-up
      [update ~recycle:true] loop this is the only counter that moves. *)

  val pooled : t -> int
  (** Profiles currently on the free list. *)
end

type context
(** Combine environment for one switch size: the [O(cap)] tables of
    [R(x) = 1/(P(N1,x) P(N2,x))] (mantissa and binary exponent, plus
    per-span ratios), the rebase span, kernel tile size, banding
    threshold and domain count, and the banded-combine counter.
    {!Factor_tree.build} resolves its context through a bounded
    process-wide cache keyed on the dimensions and resolved knobs, so
    repeated solves of one switch shape share the tables and — through
    the shared arenas — each other's recycled profiles.  {!context_of}
    always builds a fresh, unshared context. *)

val default_combine_threshold : int
(** The built-in banding threshold (2048) used when neither the
    [combine_threshold] parameter nor [CROSSBAR_COMBINE_THRESHOLD] is
    given — the capacity from which two {!Band_pool} bands beat one
    sequential separable combine on the calibration hardware
    (DESIGN.md, "Combine kernels"). *)

val context_of :
  ?tile:int ->
  ?combine_threshold:int ->
  ?band_domains:int ->
  inputs:int ->
  outputs:int ->
  unit ->
  context
(** [tile] is the kernel block edge: outputs computed per block against
    each [v]-span (default 64 entries; results do not depend on it);
    [combine_threshold] the capacity at or above which a single combine
    is banded across domains (default: the [CROSSBAR_COMBINE_THRESHOLD]
    environment variable, else 2048 — see DESIGN.md); [band_domains] the
    number of bands (default {!Domains.recommended}).  Banding is
    disabled whenever [band_domains = 1].  The rebase span is not a
    knob: it is the largest power of two [s <= 16] with
    [(N1 N2)^(s-1) <= 2^340], so every ratio applied before a partial
    sum stays far above the subnormal range (16 up to square caps of
    2047, 8 beyond).  Building a context costs [O(cap)] time and space.
    @raise Invalid_argument if any knob — parameter or environment
    override — is not [>= 1]; the message names the offending knob and
    its value. *)

val context_capacity : context -> int
(** [min inputs outputs]. *)

val arena : context -> Arena.t
(** The calling domain's arena for this context, created on first use.
    Each domain keeps the arenas of the 8 contexts it used most
    recently (the size of the shared context cache); a context pushed
    out of that set gets a fresh arena on its next use, and its old one
    — with the lattices on its free list — becomes garbage. *)

val banded_total : context -> int
(** Combines this context has run through the banded parallel kernel,
    across all solves and domains. *)

val combine : context -> Lattice.t -> Lattice.t -> Lattice.t
(** The tilted convolution
    [(A * B)(u+v) = sum A(u) B(v) w1(u,v) w2(u,v)], as the solver runs
    it.  The weights are applied in separable form: operands are copied
    into arena scratch rebased to their span bases (each entry's own
    exponent folded in, and both operands tilted by one common
    [2^-tilt u] that flattens steep profiles), each (u-span, v-span)
    pair of an output contributes a unit-stride dot product of ratios
    [<= 1], and its one large factor [R(ub) R(vb) / R(u+v)] is applied
    after the partial sum by exponent arithmetic, against the output's
    frame (pairs too far below it to register are skipped).  The result
    is an arena profile, banded across domains at or above the
    context's threshold.  Operands are never mutated.  Each output
    accumulates its terms in strictly increasing [v], grouped by spans
    the switch shape alone fixes, so the result is a bit-identical
    function of the operands regardless of tile size, banding, or which
    domain runs it.  It agrees with {!combine_naive} to rounding
    (relative [1e-12] per entry in the tests), not bit for bit.
    Operand capacities must equal the context's. *)

val combine_naive : context -> Lattice.t -> Lattice.t -> Lattice.t
(** The reference combine, a self-contained oracle for {!combine} in
    tests and benchmarks: it builds its own [(cap+1)^2] weight grids per
    call and sums each output in one pass with checked accessors,
    per-term exponent arithmetic and a fresh result — no tables, spans,
    arena or bands.  [O(cap^2)] memory per call.  Never called by the
    solver. *)

(** The balanced combine tree over tilted class factors.  Leaves are the
    per-class profiles [C_r] in class order; each internal node caches
    the tilted convolution of its children.  A trailing odd node at any
    level is carried upward by physical sharing, so a build performs
    exactly [R - 1] combines. *)
module Factor_tree : sig
  type t

  val build : ?map:((int -> Lattice.t) -> int -> Lattice.t array) -> Model.t -> t
  (** Builds all leaves, then one level at a time bottom-up.  [map]
      (default: sequential [Array.init]) evaluates the independent node
      constructions of each level and may run them in parallel — e.g.
      [Engine.Sweep.parallel_solve] passes a {!Engine.Pool} mapper.  The
      result is a pure function of the model alone: any [map] that
      returns element [i] = [f i] yields bit-identical trees. *)

  val update : ?recycle:bool -> t -> Model.t -> t
  (** [update t model] re-solves after {e any} per-class change: leaves
      whose {!Traffic.equal} comparison against [t]'s model differs are
      rebuilt and only their ancestor paths recombined —
      [O(#changed log R)] combines, against unchanged nodes shared
      physically with [t] (which is never mutated).  Bit-identical to
      [build model] at every node, for any subset of changed classes.

      [~recycle:true] additionally promises that the caller drops [t]:
      every node the update replaces (changed leaves and the recombined
      internal nodes above them) returns to the calling domain's arena
      free list, so a steady-state update loop allocates nothing on the
      major heap.  The next acquire resets those nodes, corrupting [t] —
      never the returned tree, which shares only untouched nodes.
      Default [false].
      @raise Invalid_argument if the switch dimensions or class count
      differ (no factor state can be shared). *)

  val leave_one_out : t -> Lattice.t array
  (** All leave-one-out complements [H_{-r} = prod_{s<>r} C_s] in one
      top-down prefix x suffix sweep of [2(R-1) - 2] combines (see
      docs/THEORY.md): the complement of a node is its parent's
      complement combined with its sibling, and at the leaves the
      complement is exactly [H_{-r}].  Element [r] feeds class [r]'s
      marginal distribution and shadow cost.  Sweep intermediates that
      do not survive into the returned row are recycled through the
      arena. *)

  val root : t -> Lattice.t
  (** The full product [H] (the unit profile for a zero-class model). *)

  val leaf : t -> int -> Lattice.t
  (** The tilted factor [C_r].
      @raise Invalid_argument if the class index is out of range. *)

  val model : t -> Model.t
  val num_classes : t -> int

  val combines : t -> int
  (** Number of pairwise combines performed by the {!build} or {!update}
      that produced this tree ([R - 1] for a build, 0 for an update with
      no changed class). *)

  val banded : t -> int
  (** How many of those combines ran the banded parallel kernel (0 below
      the context threshold — the telemetry [banded_combines]
      counter). *)

  val context : t -> context
  (** The combine context shared by every re-solve of this tree. *)

  val depth : t -> int
  (** Number of combine levels above the leaves ([ceil log2 R]). *)
end

type t
(** A solved model: the factor tree, the measure diagonal, and for each
    Bernoulli class the diagonal of the model with one source fewer. *)

val solve : ?map:((int -> Lattice.t) -> int -> Lattice.t array) -> Model.t -> t
(** Builds the factor tree (see {!Factor_tree.build}, including the
    parallel [map] hook) and derives all measures from one shared
    diagonal pass.  A Bernoulli class's [E_r] does not take the paper's
    Step 3 recurrence, which diverges near source saturation (a
    difference of nearly equal terms, amplified every step — {!Mva}
    shares the weakness): it is read exactly off the diagonal of the
    model with that class's intensity shifted by [beta/mu] (one source
    fewer, [k C(S,k) = S C(S-1,k-1)]), at [O(log R)] extra combines and
    one diagonal pass per Bernoulli class. *)

val solve_delta : ?recycle:bool -> previous:t -> Model.t -> t
(** [solve_delta ~previous model] re-solves [model] through
    {!Factor_tree.update} on [previous]'s tree: any subset of classes
    may change, in any order across successive calls.  Bit-identical to
    [solve model] — same measures, same [log_g] on every lattice point,
    same {!rescale_count}.  [~recycle] is {!Factor_tree.update}'s: with
    [true] the caller promises to drop [previous] entirely — its
    replaced tree nodes {e and its diagonals} go back to the arena free
    list (the solved measures, already extracted as floats, stay
    valid).
    @raise Invalid_argument if the switch dimensions or class count
    differ. *)

val recycle : t -> unit
(** Returns every lattice a dropped solve owns — all leaves, every
    internal combine result (trailing-carry aliases are released once,
    at their home position), and the diagonals — to the calling
    domain's arena free list for its context.  Contexts are shared
    process-wide per switch shape, so the next build of that shape
    acquires the recycled profiles instead of allocating.  The caller
    must guarantee nothing else references [t]: e.g. the serve registry
    recycles an evicted tree only after the batch that evicted it has
    fully drained. *)

val solve_incremental : previous:t -> class_index:int -> Model.t -> t
(** [solve_incremental ~previous ~class_index model] is {!solve_delta}
    restricted to the single changed class [class_index] — kept for
    callers that want the stricter validation.
    @raise Invalid_argument if the switch dimensions or class count
    differ, [class_index] is out of range, or any {e other} class
    differs from [previous]'s model (exact, bit-level comparison). *)

val model : t -> Model.t

val measures : t -> Measures.t
(** Measures from Step 3 of Algorithm 1 (with the corrected [E_r]
    prefactor — see DESIGN.md). *)

val tree : t -> Factor_tree.t
(** The underlying factor tree (shared, never mutated). *)

val combine_count : t -> int
(** {!Factor_tree.combines} of the solve that produced [t] — the
    telemetry [tree_combines] counter. *)

val banded_combine_count : t -> int
(** {!Factor_tree.banded} of the solve that produced [t] — the telemetry
    [banded_combines] counter. *)

val per_class_distributions : t -> Measures.distribution array
(** The full marginal occupancy distribution [p(k_r = j)] of every
    class, batched from one {!Factor_tree.leave_one_out} sweep: class
    [r]'s weights are [C_r(j a_r) . H_{-r}] contracted through the
    separable corner weights, normalised over [j].  [O(R)] combines total
    instead of [R] independent solves; agrees with
    {!Occupancy.class_distribution} to rounding.  Each class's weights
    carry exponents until the largest is known, so only probabilities
    below [2^-1074] of the mode read as zero. *)

val concurrencies_at_depth : t -> depth:int -> float array
(** [concurrencies_at_depth t ~depth] evaluates every class's expected
    concurrency [E_r] on the reduced switch [(N1 - depth) x (N2 - depth)]
    {e from the already-solved diagonals}: reduced models preserve the
    per-pair BPP parameters, so [G_reduced(j) = diag.(depth + j)] and no
    re-solve is needed.  [depth = 0] reproduces the measures of {!solve}
    bit for bit; positive depths power {!Revenue.shadow_costs}, all [R]
    of them from this single solve.
    @raise Invalid_argument if [depth] lies outside [0 .. min N1 N2]. *)

val log_g : t -> inputs:int -> outputs:int -> float
(** [log G(n1, n2)], evaluated from the factored form in [O(cap)]
    against the context's [R] table, with the falling factorials and the
    sum carried as mantissa and exponent: exact at every lattice point,
    however far below the corner ([log_g ~inputs:0 ~outputs:0 = 0.]).
    @raise Invalid_argument outside the lattice. *)

val log_normalization : t -> float
(** [log G(N1, N2)]. *)

val rescale_count : t -> int
(** A diagnostic of how deep a solve sits in the regime the paper's
    Section 6 scheme had to rescale: the number of 830-bit chunks the
    root's largest entry, or the product of the last combine's operand
    peaks, would have needed to come below [1e250] (about [2^830]).
    Nothing is rescaled; 0 for every workload in the paper.
    Bit-identical between {!solve} and {!solve_delta}. *)
