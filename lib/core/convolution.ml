module Special = Crossbar_numerics.Special
module Logspace = Crossbar_numerics.Logspace

(* The recurrence of Algorithm 1 factors per class (see DESIGN.md,
   "Class-factored convolution").  Writing Q(n1,n2) = G(n1,n2)/(n1! n2!)
   and matching coefficients in the paper's direction-1 recurrence shows

     G(n1, n2) = sum_u H(u) P(n1, u) P(n2, u),      P(n, u) = n!/(n-u)!

   where H = h_1 * ... * h_R is the 1-D convolution over used bandwidth
   [u] of per-class generating sequences h_r: for a class of bandwidth
   [a], per-pair intensity [rho] and burst ratio [theta = beta/mu],

     h_r(k a) = rho (rho + theta) ... (rho + (k-1) theta) / k!

   (Poisson classes are theta = 0, i.e. rho^k/k!; Bernoulli classes have
   theta < 0 and truncate at the source count).  We store each factor in
   corner-tilted form C_r(u) = h_r(u) P(N1,u) P(N2,u), one binary
   exponent per entry (see Lattice): the root H of an R=4 solve at cap
   512 spans some 600 decades, more than one double's range, so no single
   scale per profile (the paper's Section 6 rescale) can hold it.  The
   same factorial scaling that defines Q makes the combine weight of
   tilted factors separable: with R(x) = 1 / (P(N1,x) P(N2,x)),

     w1 w2 (u, v) = P(N1,u+v) P(N2,u+v) / (P(N1,u) P(N1,v) P(N2,u) P(N2,v))
                  = R(u) R(v) / R(u+v),

   so a context holds O(cap) tables of R (as mantissa and exponent)
   rather than weight grids, and the combine, the measure diagonal and
   the marginals all run as span-tiled unit-stride dot products.

   The combine is associative up to rounding, so the factors can be
   multiplied in any tree shape; this module fixes one shape — a
   balanced binary tree with leaves C_1 .. C_R in class order — and
   makes it *the* solver.  Re-solving after changing any subset of the
   classes recombines only the root paths of the changed leaves
   (O(#changed log R) combines), and because the untouched nodes are
   shared physically and [combine] is deterministic, the result is
   bit-identical to a full rebuild.  The same tree yields every
   leave-one-out complement H_{-r} = prod_{s<>r} C_s in one top-down
   sweep of O(R) combines (the prefix x suffix identity; see
   docs/THEORY.md), which batches per-class marginal distributions and
   all R shadow costs out of a single solve.

   The combine runs over Bigarray profiles with per-domain scratch
   arenas (zero major-heap allocation after warm-up) and, above a
   capacity threshold, splits its output into deterministic row bands
   computed by parallel domains — see DESIGN.md, "Combine kernels". *)

(* Per-domain scratch for the combine hot path: two rebased operand
   copies (plain mantissa arrays) with the binary exponent each of their
   spans was normalised by, the current combine's output frames (see
   [load_frames]), and a free list of result-sized lattices
   recycled by [Factor_tree.update ~recycle] and the leave-one-out
   sweep.  One arena exists per (context, domain) pair — kept in the
   domain's own bounded table (see [arena]), so combines issued
   concurrently by a pool mapper never share scratch. *)
module Arena = struct
  type t = {
    left : Lattice.values;
    right : Lattice.values;
    left_shift : int array;
    right_shift : int array;
    frames : int array;
    mutable pool : Lattice.t list;
    mutable created : int;
    mutable reused : int;
  }

  let create ~cap ~spans =
    {
      left =
        Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (cap + 1);
      right =
        Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (cap + 1);
      left_shift = Array.make spans 0;
      frames = Array.make spans 0;
      right_shift = Array.make spans 0;
      pool = [];
      created = 0;
      reused = 0;
    }

  let created t = t.created
  let reused t = t.reused
  let pooled t = List.length t.pool

  (* Pops a recycled lattice — reset to the all-zero state, so callers
     cannot tell it from a fresh [create] — or creates one. *)
  let acquire t ~cap ~stride =
    match t.pool with
    | l :: rest ->
        t.pool <- rest;
        t.reused <- t.reused + 1;
        Lattice.reset ~stride l;
        l
    | [] ->
        t.created <- t.created + 1;
        Lattice.create ~stride ~capacity:cap ()

  (* Hands a lattice back for reuse.  Ownership is never inferred: a
     caller must guarantee no live structure still references [l]. *)
  let release t l = t.pool <- l :: t.pool
end

type context = {
  n1 : int;
  n2 : int;
  cap : int; (* min n1 n2: used bandwidth never exceeds either side *)
  span : int; (* rebase span, 2^span_log2; see [span_log2_for] *)
  span_log2 : int;
  tile : int; (* kernel output block edge, in lattice entries *)
  mant : floatarray; (* R(x) = mant.(x) * 2^expo.(x), mant in [0.5, 1) *)
  inv_mant : floatarray; (* 1 / mant.(x) *)
  expo : int array;
  from_top : floatarray; (* R(span top of x) / R(x), in (0, 1] *)
  band_threshold : int; (* cap >= this: parallelise a single combine *)
  band_domains : int; (* bands (domains) a banded combine splits into *)
  banded_total : int Atomic.t; (* banded combines through this context *)
}

let imin (a : int) b = if a <= b then a else b
let imax (a : int) b = if a >= b then a else b

(* Rebase span, a power of two so that span bases are masks.  The
   factor a kernel applies to an entry before its partial sum is
   R(x) / R(base) times a mantissa in [0.5, 1), over at most [span - 1]
   steps of the chain R(x+1) = R(x) / ((N1-x)(N2-x)); keeping
   (N1 N2)^(span-1) within 2^340 leaves the product of two such factors
   some 340 bits clear of the subnormal range.  Spans of 16 hold while
   N1 N2 < 2^22 (square caps to 2047); larger switches get 8. *)
let rebase_bits = 340

let span_log2_for ~inputs ~outputs =
  (* 2^(bits-1) <= N1 N2 < 2^bits *)
  let _, bits = Float.frexp (float_of_int (inputs * outputs)) in
  let rec fit k =
    if k > 0 && ((1 lsl k) - 1) * bits > rebase_bits then fit (k - 1) else k
  in
  fit 4

(* R(x) = 1 / (P(N1, x) P(N2, x)) as mantissa and binary exponent — it
   spans thousands of decades at large caps — plus the per-span table
   the diagonal's correlation rebases with, R(span top) / R(x) (in
   (0, 1]). *)
let separable_tables ~inputs ~outputs ~cap ~span =
  let mant = Float.Array.make (cap + 1) 0.5 in
  let expo = Array.make (cap + 1) 1 in
  for x = 1 to cap do
    let m, e =
      Float.frexp
        (Float.Array.get mant (x - 1)
        /. float_of_int ((inputs - x + 1) * (outputs - x + 1)))
    in
    Float.Array.set mant x m;
    expo.(x) <- expo.(x - 1) + e
  done;
  let ratio x y =
    Float.ldexp
      (Float.Array.get mant x /. Float.Array.get mant y)
      (expo.(x) - expo.(y))
  in
  let top x = imin cap ((x land lnot (span - 1)) + span - 1) in
  ( mant,
    Float.Array.map (fun m -> 1. /. m) mant,
    expo,
    Float.Array.init (cap + 1) (fun x -> ratio (top x) x) )

let default_tile = 64

(* Measured on the 2-vCPU reference host (DESIGN.md, "Combine
   kernels"): below cap 2048 two bands cost 5-25% more CPU than one and
   lose up to 20% of wall time whenever the host's second vCPU is busy;
   from 2048 they never lose. *)
let default_band_threshold = 2048
let default_combine_threshold = default_band_threshold

let env_knob name =
  match Sys.getenv_opt name with
  | None -> None
  | Some text -> (
      (* Same contract as CROSSBAR_DOMAINS (see Domains.recommended): a
         malformed deploy-time override fails loudly. *)
      match int_of_string_opt (String.trim text) with
      | Some v when v >= 1 -> Some v
      | Some v ->
          invalid_arg
            (Printf.sprintf "Convolution.context_of: %s=%d must be >= 1" name
               v)
      | None ->
          invalid_arg
            (Printf.sprintf "Convolution.context_of: %s=%S is not an integer"
               name text))

let context_of ?tile ?combine_threshold ?band_domains ~inputs ~outputs () =
  let tile =
    match tile with
    | Some t when t >= 1 -> t
    | Some t ->
        invalid_arg
          (Printf.sprintf "Convolution.context_of: tile=%d must be >= 1" t)
    | None -> default_tile
  in
  let band_threshold =
    match combine_threshold with
    | Some t when t >= 1 -> t
    | Some t ->
        invalid_arg
          (Printf.sprintf
             "Convolution.context_of: combine_threshold=%d must be >= 1" t)
    | None -> (
        match env_knob "CROSSBAR_COMBINE_THRESHOLD" with
        | Some t -> t
        | None -> default_band_threshold)
  in
  let band_domains =
    match band_domains with
    | Some d when d >= 1 -> d
    | Some d ->
        invalid_arg
          (Printf.sprintf
             "Convolution.context_of: band_domains=%d must be >= 1" d)
    | None -> Domains.recommended ()
  in
  let cap = min inputs outputs in
  let span_log2 = span_log2_for ~inputs ~outputs in
  let span = 1 lsl span_log2 in
  let mant, inv_mant, expo, from_top =
    separable_tables ~inputs ~outputs ~cap ~span
  in
  {
    n1 = inputs;
    n2 = outputs;
    cap;
    span;
    span_log2;
    tile;
    mant;
    inv_mant;
    expo;
    from_top;
    band_threshold;
    band_domains;
    banded_total = Atomic.make 0;
  }

let context_capacity ctx = ctx.cap
let banded_total ctx = Atomic.get ctx.banded_total

(* Bound on the shared context cache below, and on each domain's
   arenas: a working set of this many switch shapes keeps every
   context's arena (and its recycled lattices) on every domain. *)
let shared_context_limit = 8

(* Each domain's arenas, one per context it combined under lately, most
   recent first and at most [shared_context_limit] of them.  One key for
   the module: OCaml never frees a DLS key, so a key per context would
   keep an evicted context's arenas alive on every domain it ever
   combined on.  Entries are matched by physical identity. *)
let domain_arenas : (context * Arena.t) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let rec without ctx n = function
  | [] -> []
  | _ when n <= 0 -> []
  | ((c, _) as entry) :: rest ->
      if c == ctx then without ctx n rest
      else entry :: without ctx (n - 1) rest

let arena_miss recent ctx =
  let arena =
    match List.assq_opt ctx !recent with
    | Some arena -> arena
    | None ->
        Arena.create ~cap:ctx.cap ~spans:((ctx.cap lsr ctx.span_log2) + 1)
  in
  (* lint: alloc=tuple -- MRU reorder, on a context switch only *)
  recent := (ctx, arena) :: without ctx (shared_context_limit - 1) !recent;
  arena

(* The hot path is one DLS read and a front-slot [==]: no allocation
   while a domain keeps combining under one context. *)
let arena ctx =
  let recent = Domain.DLS.get domain_arenas in
  match !recent with
  | (c, arena) :: _ when c == ctx -> arena
  | _ -> arena_miss recent ctx

(* Process-wide bounded MRU cache of contexts, keyed on the switch
   dimensions and the resolved knobs.  A context's tables are O(cap),
   but its per-domain arenas hold every recycled node on their free
   lists — so repeated default-knob builds of the same switch shape must
   share one context, so that lattices recycled when a serve cache
   evicts a tree actually reach the next build of that shape.  Env knobs
   are resolved per call, so changing CROSSBAR_COMBINE_THRESHOLD or
   CROSSBAR_DOMAINS yields a distinct key (and a fresh context). *)
let shared_context_lock = Mutex.create ()

let shared_contexts : ((int * int * int * int * int) * context) list Atomic.t =
  Atomic.make []

let rec cache_take entries n =
  match entries with
  | [] -> []
  | _ when n <= 0 -> []
  | e :: rest -> e :: cache_take rest (n - 1)

let shared_context ~inputs ~outputs =
  Mutex.lock shared_context_lock;
  match
    let band_threshold =
      match env_knob "CROSSBAR_COMBINE_THRESHOLD" with
      | Some t -> t
      | None -> default_band_threshold
    in
    let band_domains = Domains.recommended () in
    let key = (inputs, outputs, default_tile, band_threshold, band_domains) in
    let entries = Atomic.get shared_contexts in
    match List.assoc_opt key entries with
    | Some ctx ->
        (* Move to front so the working set stays resident. *)
        Atomic.set shared_contexts
          ((key, ctx) :: List.filter (fun (k, _) -> k <> key) entries);
        ctx
    | None ->
        let ctx = context_of ~inputs ~outputs () in
        Atomic.set shared_contexts
          ((key, ctx) :: cache_take entries (shared_context_limit - 1));
        ctx
  with
  | ctx ->
      Mutex.unlock shared_context_lock;
      ctx
  | exception e ->
      Mutex.unlock shared_context_lock;
      raise e

let unit_profile cap =
  let l = Lattice.create ~capacity:cap () in
  Lattice.set l 0 1.;
  l

(* [x * 2^e], bit-identical to [Float.ldexp x e]: while 2^e is a normal
   double the product rounds once, as ldexp does, so only exponents
   outside that range pay for the library call. *)
(* lint: domain-safe — written once at module init, read-only after *)
let pow2 =
  let table = Float.Array.create 2046 in
  for i = 0 to 2045 do
    Float.Array.set table i (Float.ldexp 1. (i - 1022))
  done;
  table

let[@inline] scale2 x e =
  if e >= -1022 && e <= 1023 then x *. Float.Array.unsafe_get pow2 (e + 1022)
  else Float.ldexp x e

(* A segment of a kernel output whose bound sits [negligible] or more
   binary orders below the output's frame adds less than the smallest
   subnormal (its sum is below 2 span <= 2^5); the kernel skips it.
   [pow2_down] holds the scale-down factors 2^-i for the rest. *)
let negligible = 1080

(* lint: domain-safe — written once at module init, read-only after *)
let pow2_down =
  let table = Float.Array.create negligible in
  for i = 0 to negligible - 1 do
    Float.Array.set table i (Float.ldexp 1. (-i))
  done;
  table

(* frexp's exponent of a normal [x] — |x| in [2^(e-1), 2^e) — read off
   the bit pattern, so no tuple is allocated; -1022 for zero and
   subnormals. *)
let[@inline] exponent_of x =
  (Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float x) 52)
  land 0x7ff)
  - 1022

(* [(m, e)] plus [x * 2^k], for [x] within a few binary orders of 1,
   held against the larger of the two exponents so neither term is
   flushed against the other: the running-exponent sum of [log_g] and
   the reference combine.  The kernels hold their sums against a frame
   worked out in advance instead (see [load_frames]). *)
let accumulate (m, e) x k =
  if k > e || not (Float.abs m > 0.) then (scale2 m (e - k) +. x, k)
  else (m +. scale2 x (k - e), e)

(* Tilted per-class sequence: with step_k = P(N1-(k-1)a, a)
   P(N2-(k-1)a, a) carrying the corner tilt along, so magnitudes track
   G rather than h alone,
     C(k a) = C((k-1) a) step_k (rho + (k-1) theta) / k,
   the BPP product h(k) = rho (rho + theta) ... (rho + (k-1) theta) / k!
   one factor at a time.  step_k is R((k-1) a) / R(k a), read off the
   context's tables as a mantissa quotient and an exponent difference,
   and each entry is normalised as it is stored, so no step can
   overflow at any bandwidth.  A Bernoulli class with [S] sources stops
   at k = S: h(k a) is exactly zero beyond it, where the factor
   rho + S theta vanishes only up to rounding (which every later step
   would multiply by |theta| P P / k).  The profile comes from the
   current domain's arena (zeroed), so a steady-state update loop
   rebuilds leaves into recycled storage. *)
let factor_of ctx ~a ~rho ~theta =
  let seq = Arena.acquire (arena ctx) ~cap:ctx.cap ~stride:a in
  Lattice.set seq 0 1.;
  let last =
    let sources = Float.round (rho /. -.theta) in
    if
      theta < 0.
      && Float.abs ((rho /. -.theta) -. sources) < 1e-9 *. Float.max 1. sources
    then imin (ctx.cap / a) (int_of_float sources)
    else ctx.cap / a
  in
  let v = Lattice.values seq and e = Lattice.exponents seq in
  for k = 1 to last do
    let u = k * a in
    let x =
      Bigarray.Array1.unsafe_get v (u - a)
      *. (Float.Array.unsafe_get ctx.mant (u - a)
         /. Float.Array.unsafe_get ctx.mant u)
      *. ((rho +. (float_of_int (k - 1) *. theta)) /. float_of_int k)
    in
    if Float.abs x > 0. then begin
      let s = exponent_of x in
      Bigarray.Array1.unsafe_set v u (scale2 x (-s));
      Bigarray.Array1.unsafe_set e u
        (Int32.of_int
           (Int32.to_int (Bigarray.Array1.unsafe_get e (u - a))
           + Array.unsafe_get ctx.expo (u - a)
           - Array.unsafe_get ctx.expo u + s))
    end
  done;
  seq

let class_factor ctx model r =
  factor_of ctx ~a:(Model.bandwidth model r) ~rho:(Model.rho model r)
    ~theta:(Model.beta_over_mu model r)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* Copies [src] into the scratch array [dst] rebased span by span:
   entry [u] = m(u) 2^e(u) becomes
     m(u) mant(u) 2^(e(u) + expo(u) - tilt u - sigma),
   i.e. C(u) R(u) 2^-(tilt u) over 2^sigma, where 2^sigma bounds the
   span's largest such value (mantissas are normalised, so exponents
   alone bound it) and goes to [shift.(span)], the exponent the kernels
   add back.  So every rebased entry is below 1, and an entry is only
   ever measured against the peak of its own span, never against the
   profile's.  The [tilt] (2^-tilt per unit of bandwidth) is the
   exponential tilt z -> z 2^-tilt of the operand's generating
   function: a combine applies the same tilt to both operands, every
   term of output t then carries the same 2^-(tilt t), which the kernel
   adds back with the output's exponent, and the sum is unchanged —
   but a steep profile (a hot class gains 2^140 per port) becomes flat
   within each span, so the product of two entries low in their spans
   cannot underflow.  The diagonal and the marginals load with tilt 0. *)
let zero_shift = min_int / 4

let load_rebased ?(tilt = 0) ctx (dst : Lattice.values) shift src =
  let s = ctx.span in
  let sv = Lattice.values src and se = Lattice.exponents src in
  let mant = ctx.mant and expo = ctx.expo in
  (* lint: alloc=sigma -- one scratch cell per operand load *)
  let sigma = ref 0 in
  for span = 0 to Lattice.capacity src lsr ctx.span_log2 do
    let lo = span lsl ctx.span_log2 in
    let hi = imin (Lattice.capacity src) (lo + s - 1) in
    sigma := min_int;
    for u = lo to hi do
      if Float.abs (Bigarray.Array1.unsafe_get sv u) > 0. then
        sigma :=
          imax !sigma
            (Int32.to_int (Bigarray.Array1.unsafe_get se u)
            + Array.unsafe_get expo u - (tilt * u))
    done;
    (* an all-zero span's shift sits far below every real one, so it
       never sets an output's frame *)
    if !sigma = min_int then sigma := zero_shift;
    Array.unsafe_set shift span !sigma;
    for u = lo to hi do
      let m = Bigarray.Array1.unsafe_get sv u in
      Bigarray.Array1.unsafe_set dst u
        (if Float.abs m > 0. then
           scale2
             (m *. Float.Array.unsafe_get mant u)
             (Int32.to_int (Bigarray.Array1.unsafe_get se u)
             + Array.unsafe_get expo u - (tilt * u) - !sigma)
         else 0.)
    done
  done

(* Binary magnitude of entry [u] of [l] against the untilted scale:
   log2 of C(u) R(u), up to a mantissa's fraction of a bit. *)
let magnitude ctx l u = Lattice.exponent l u + Array.unsafe_get ctx.expo u

(* Average slope, in bits per unit of bandwidth, of log2 C(u) R(u) over
   the nonzero support of [l] (0 when that is a single entry). *)
let rec first_nonzero l u =
  if u >= Lattice.capacity l || Float.abs (Lattice.unsafe_mantissa l u) > 0.
  then u
  else first_nonzero l (u + 1)

let rec last_nonzero l u =
  if u <= 0 || Float.abs (Lattice.unsafe_mantissa l u) > 0. then u
  else last_nonzero l (u - 1)

let slope ctx l =
  let lo = first_nonzero l 0 and hi = last_nonzero l (Lattice.capacity l) in
  if hi <= lo then 0.
  else
    float_of_int (magnitude ctx l hi - magnitude ctx l lo)
    /. float_of_int (hi - lo)

(* The combine's common tilt: midway between the operands' average
   slopes, so neither is left steeper than half their difference. *)
let tilt_for ctx a b =
  int_of_float (Float.round ((slope ctx a +. slope ctx b) /. 2.))

(* Each output's frame, the exponent its sum is held against: a term
   of output t in the (u-span, v-span) pair (T - j - seg, j), with
   T = t / span and seg in {0, 1}, carries
     2^(shift_a.(T - j - seg) + shift_b.(j) + tilt t) / R(t),
   so frames.(T) = max over j, seg of shift_a + shift_b bounds the
   exponent of every segment sum of every output in span T (each below
   2 span), and the kernel scales each one down into it.  A (max, +)
   correlation of the two shift arrays, O((cap / span)^2) per combine. *)
let load_frames ctx (arena : Arena.t) =
  let a = arena.left_shift and b = arena.right_shift in
  let frames = arena.frames in
  for tt = 0 to ctx.cap lsr ctx.span_log2 do
    Array.unsafe_set frames tt zero_shift;
    for j = 0 to tt do
      let bj = Array.unsafe_get b j in
      let m =
        imax
          (bj + Array.unsafe_get a (tt - j))
          (if tt > j then bj + Array.unsafe_get a (tt - j - 1) else zero_shift)
      in
      if m > Array.unsafe_get frames tt then Array.unsafe_set frames tt m
    done
  done

(* Offset in [0, l) of the valid v of output [t] (v a multiple of
   [sb], t - v of [sa]; l = lcm sa sb): they form one residue class mod
   l because [t] is a multiple of gcd sa sb.  The general case walks at
   most [sa] multiples of [sb]. *)
let rec residue_walk ~sa ~sb t v =
  if (t - v) mod sa = 0 then v else residue_walk ~sa ~sb t (v + sb)

let residue ~sa ~sb t =
  if sa = 1 then 0 else if sb = 1 then t mod sa else residue_walk ~sa ~sb t 0

(* The separable kernel over outputs [lo .. hi].  With
   R(x) = 1/(P(N1,x) P(N2,x)) every combine weight factors as
     w1 w2 (u, v) = R(u) R(v) / R(u+v),
   so a term of output t = u + v is
     A(u) B(v) w(u, v) = a'(u) b'(v) 2^(shift_a + shift_b + tilt t) / R(t),
   where the arena holds both operands rebased per span and tilted (see
   [load_rebased]): a'(u) and b'(v) are below 1, and their spans' peak
   exponents sit in the shifts.  The terms of one (u-span, v-span) pair
   form a unit-stride reversed dot product; its one large factor
   2^(shift_a + shift_b + tilt t) / R(t) is applied after the partial
   sum as a mantissa and a binary exponent, so no intermediate leaves
   the double range however far R(x) itself does.  Each output sums
   against its frame (see [load_frames]), the largest such exponent of
   any of its segments, so every segment is scaled down by a table
   power of two, never up, and the output is stored normalised against
   its own exponent: no output is flushed however far it sits from the
   others.  Valid terms (u a multiple of [sa], v of [sb]) step by
   l = lcm sa sb in v.

   Outputs are blocked [ctx.tile] at a time against ascending v-spans,
   each output parking its running sum in its own cell between spans.
   Per output the additions run in strictly increasing v — v-spans in
   order, and within a v-span the u-span boundary splits the v range
   into at most two ascending segments — so the summation order is a
   function of (t, span) alone: the same for every tile edge, band split
   and domain. *)
let kernel ctx (arena : Arena.t) ~sa ~sb ~tilt result lo hi =
  let s = ctx.span and tile = ctx.tile and log2s = ctx.span_log2 in
  let mask = s - 1 in
  let g = gcd sa sb in
  let l = sa / g * sb in
  let aligned = s mod l = 0 in
  let inv_mant = ctx.inv_mant and expo = ctx.expo in
  let lv = arena.left
  and rv = arena.right
  and out = Lattice.values result
  and oexp = Lattice.exponents result in
  let lshift = arena.left_shift and frames = arena.frames in
  (* lint: alloc=v,p,q,acc -- four scratch cells for the whole kernel *)
  let v = ref 0 and p = ref 0. and q = ref 0. and acc = ref 0. in
  for block = 0 to (hi - lo) / tile do
    let t0 = lo + (block * tile) in
    let t1 = imin hi (t0 + tile - 1) in
    for t = t0 to t1 do
      Bigarray.Array1.unsafe_set out t 0.
    done;
    for span = 0 to t1 lsr log2s do
      let vbase = span lsl log2s in
      let last_in_span = vbase + mask in
      let shift_b = Array.unsafe_get arena.right_shift span in
      for t = imax t0 vbase to t1 do
        if g = 1 || t mod g = 0 then begin
          if l = 1 then v := vbase
          else begin
            let c = residue ~sa ~sb t in
            if aligned then v := vbase + c
            else begin
              let d = (c - vbase) mod l in
              v := vbase + if d < 0 then d + l else d
            end
          end;
          let last = imin last_in_span t in
          (* v <= split: u lies in the span based at [t - split]; past
             it, in the span below. *)
          let split = vbase + (t land mask) in
          let upper = (t - split) lsr log2s in
          let inv_t = Float.Array.unsafe_get inv_mant t in
          (* how far this v-span's segments sit below the output's frame,
             before the u-span's shift *)
          let lift = Array.unsafe_get frames (t lsr log2s) - shift_b in
          acc := Bigarray.Array1.unsafe_get out t;
          for seg = 0 to 1 do
            let seg_end = if seg = 0 then imin last split else last in
            let below = lift - Array.unsafe_get lshift (upper - seg) in
            if !v <= seg_end && below >= negligible then
              v := !v + (((seg_end - !v) / l) + 1) * l
            else if !v <= seg_end then begin
              (* Two interleaved partial sums halve the add chain; unit
                 steps get their own loop, the common dense case.  Its
                 constant offsets pay: folded into the general loop, it
                 and its twin in [correlate] cost serve-large 2-6% CPU
                 per operation (2-vCPU host, ten alternating pairs). *)
              p := 0.;
              q := 0.;
              if l = 1 then
                while !v < seg_end do
                  p :=
                    !p
                    +. Bigarray.Array1.unsafe_get lv (t - !v)
                       *. Bigarray.Array1.unsafe_get rv !v;
                  q :=
                    !q
                    +. Bigarray.Array1.unsafe_get lv (t - !v - 1)
                       *. Bigarray.Array1.unsafe_get rv (!v + 1);
                  v := !v + 2
                done
              else
                while !v + l <= seg_end do
                  p :=
                    !p
                    +. Bigarray.Array1.unsafe_get lv (t - !v)
                       *. Bigarray.Array1.unsafe_get rv !v;
                  q :=
                    !q
                    +. Bigarray.Array1.unsafe_get lv (t - !v - l)
                       *. Bigarray.Array1.unsafe_get rv (!v + l);
                  v := !v + (2 * l)
                done;
              if !v <= seg_end then begin
                p :=
                  !p
                  +. Bigarray.Array1.unsafe_get lv (t - !v)
                     *. Bigarray.Array1.unsafe_get rv !v;
                v := !v + l
              end;
              acc :=
                !acc
                +. (!p +. !q) *. inv_t *. Float.Array.unsafe_get pow2_down below
            end
          done;
          Bigarray.Array1.unsafe_set out t !acc
        end
      done
    done
  done;
  (* each output against its frame, normalised (see Lattice) *)
  for t = lo to hi do
    let m = Bigarray.Array1.unsafe_get out t in
    if Float.abs m > 0. then begin
      let s = exponent_of m in
      Bigarray.Array1.unsafe_set out t (scale2 m (-s));
      Bigarray.Array1.unsafe_set oexp t
        (Int32.of_int
           (Array.unsafe_get frames (t lsr log2s)
           + (tilt * t) - Array.unsafe_get expo t + s))
    end
    else Bigarray.Array1.unsafe_set oexp t 0l
  done

(* Deterministic band boundaries.  The kernel's cost at output [total]
   is proportional to [total + 1] (the length of its v-sum), so an
   even split of output *indices* would give the last band several
   times the work of the first.  Splitting the cumulative triangular
   work — boundary [i] at the output where i/bands of the total
   term count lies below — balances the bands: for 2 bands the split
   lands near cap/sqrt(2), not cap/2.  Pure arithmetic on (cap, bands)
   — never on scheduling — so banded results are a function of the
   operands alone. *)
let band_lo cap bands i =
  if i <= 0 then 0
  else if i >= bands then cap + 1
  else
    let n = float_of_int (cap + 1) in
    let lo =
      int_of_float (n *. sqrt (float_of_int i /. float_of_int bands))
    in
    if lo > cap + 1 then cap + 1 else lo

(* Splits one large combine's output lattice into [band_domains] row
   bands dispatched through the persistent {!Band_pool} (band 0 runs on
   the calling domain).  Each band writes a disjoint output range of
   [result]'s mantissa and exponent Bigarrays (GC-opaque, so domains
   share them without tearing the runtime), and only reads the operands
   and tables; every
   output index is computed by exactly one band with the same per-output
   term order as the sequential kernel, so the result is bit-identical
   however many domains run.  [counter] is the solve-local banded
   counter of the build/update in flight (contexts are shared
   process-wide, so the context's own running total cannot attribute
   banded combines to one solve). *)
let combine_banded ctx counter arena ~sa ~sb ~tilt result =
  let bands = ctx.band_domains in
  (* Bands write disjoint output rows; the rebased operands, their
     shifts and the context tables are read-only during the kernel.  One
     band thunk per banded combine. *)
  (* lint: guarded=ctx,arena,result alloc=closure *)
  Band_pool.run ~bands (fun i ->
      let lo = band_lo ctx.cap bands i in
      let hi = band_lo ctx.cap bands (i + 1) - 1 in
      if lo <= hi then kernel ctx arena ~sa ~sb ~tilt result lo hi);
  Atomic.incr ctx.banded_total;
  if counter != ctx.banded_total then Atomic.incr counter

(* Tilted convolution (A * B)(u+v) = sum A(u) B(v) w1(u,v) w2(u,v).
   Never mutates its operands — tree nodes are shared across re-solves —
   so the rebased copies live in the per-domain arena.  The summation
   order is fixed per output (see [kernel]), so recombining the same
   operands is bit-identical no matter which solve path — sequential,
   banded, or pool-mapped — runs.  The result lattice comes from the
   arena's free list when recycled nodes are available, so a warmed-up
   update loop allocates nothing on the major heap.  [combine_into]
   threads the solve-local banded counter; the public [combine]
   attributes banded combines to the context's running total only. *)
let combine_into ctx counter a b =
  let sa = Lattice.stride a and sb = Lattice.stride b in
  let arena = arena ctx in
  let tilt = tilt_for ctx a b in
  load_rebased ~tilt ctx arena.Arena.left arena.Arena.left_shift a;
  load_rebased ~tilt ctx arena.Arena.right arena.Arena.right_shift b;
  load_frames ctx arena;
  let result = Arena.acquire arena ~cap:ctx.cap ~stride:(gcd sa sb) in
  if ctx.cap >= ctx.band_threshold && ctx.band_domains > 1 then
    combine_banded ctx counter arena ~sa ~sb ~tilt result
  else kernel ctx arena ~sa ~sb ~tilt result 0 ctx.cap;
  result

let combine ctx a b = combine_into ctx ctx.banded_total a b

(* The reference combine, a self-contained oracle for the separable
   kernel (test_kernel and the bench kernel section): it builds its own
   (cap+1)^2 weight grids per call,
     w_i(u, v) = prod_{j<u} (N_i - j - v)/(N_i - j),
   and sums each output in one pass with checked accessors and per-term
   exponent arithmetic — no arena, tables, spans or bands.  Never called
   by the solver. *)
let combine_naive ctx a b =
  let cap = ctx.cap in
  let cells = cap + 1 in
  let weight_grid ports =
    let g = Float.Array.make (cells * cells) 0. in
    for v = 0 to cap do
      Float.Array.set g v 1.;
      for u = 1 to cap - v do
        let j = u - 1 in
        Float.Array.set g ((u * cells) + v)
          (Float.Array.get g ((j * cells) + v)
          *. (float_of_int (ports - j - v) /. float_of_int (ports - j)))
      done
    done;
    g
  in
  let w1 = weight_grid ctx.n1 and w2 = weight_grid ctx.n2 in
  let sa = Lattice.stride a and sb = Lattice.stride b in
  let result = Lattice.create ~stride:(gcd sa sb) ~capacity:cap () in
  for total = 0 to cap do
    let sum = ref (0., 0) and v = ref 0 in
    while !v <= total do
      let u = total - !v in
      if u mod sa = 0 then begin
        (* Group each operand with its own weight and normalise both
           before the product: the weights lie in (0, 1], and neither
           the product of two small mantissas nor w1*w2 alone may
           underflow. *)
        let cell = (u * cells) + !v in
        let left = Lattice.mantissa a u *. Float.Array.get w1 cell in
        let right = Lattice.mantissa b !v *. Float.Array.get w2 cell in
        let el = exponent_of left and er = exponent_of right in
        sum :=
          accumulate !sum
            (scale2 left (-el) *. scale2 right (-er))
            (Lattice.exponent a u + Lattice.exponent b !v + el + er)
      end;
      v := !v + sb
    done;
    let m, e = !sum in
    Lattice.set_scaled result total m e
  done;
  result

(* Physical membership of [l] in [arr] from index [i] — the recycling
   guard of the leave-one-out sweep. *)
let rec lattice_memq l arr i =
  if i >= Array.length arr then false
  else arr.(i) == l || lattice_memq l arr (i + 1)

let rec release_unreturned arena returned fresh =
  match fresh with
  | [] -> ()
  | l :: rest ->
      if not (lattice_memq l returned 0) then Arena.release arena l;
      release_unreturned arena returned rest

module Factor_tree = struct
  (* [levels.(0)] holds the tilted leaves C_1 .. C_R in class order;
     [levels.(k+1).(j)] is [combine levels.(k).(2j) levels.(k).(2j+1)],
     except that a trailing odd node is carried up by physical sharing
     (no dummy combine against the unit profile, so a solve costs
     exactly R-1 combines).  The last level is [| H |].  A model with
     zero classes stores the unit profile as its only node. *)
  type nonrec t = {
    model : Model.t;
    ctx : context;
    levels : Lattice.t array array;
    combines : int; (* combines performed by the build/update that made [t] *)
    banded : int; (* how many of those ran the banded parallel kernel *)
  }

  let sequential_map f n = Array.init n f

  let build_levels ~map ctx counter leaves =
    let combines = ref 0 in
    let acc = ref [ leaves ] in
    let current = ref leaves in
    while Array.length !current > 1 do
      let level = !current in
      let n = Array.length level in
      let next =
        map
          (fun j ->
            if (2 * j) + 1 < n then
              combine_into ctx counter level.(2 * j) level.((2 * j) + 1)
            else level.(2 * j))
          ((n + 1) / 2)
      in
      combines := !combines + (n / 2);
      acc := next :: !acc;
      current := next
    done;
    (Array.of_list (List.rev !acc), !combines)

  let build ?(map = sequential_map) model =
    let ctx =
      shared_context ~inputs:(Model.inputs model) ~outputs:(Model.outputs model)
    in
    (* Solve-local banded counter: the shared context's running total
       spans every build that ever used it, so per-tree attribution —
       which the serve replay byte-identity gate depends on — needs its
       own counter. *)
    let counter = Atomic.make 0 in
    let num = Model.num_classes model in
    let leaves =
      if num = 0 then [| unit_profile ctx.cap |]
      else map (fun r -> class_factor ctx model r) num
    in
    let levels, combines = build_levels ~map ctx counter leaves in
    { model; ctx; levels; combines; banded = Atomic.get counter }

  let model t = t.model
  let num_classes t = Model.num_classes t.model
  let combines t = t.combines
  let banded t = t.banded
  let context t = t.ctx
  let depth t = Array.length t.levels - 1

  let root t =
    let top = t.levels.(Array.length t.levels - 1) in
    top.(0)

  let leaf t r =
    if r < 0 || r >= num_classes t then
      invalid_arg "Convolution.Factor_tree.leaf: class index out of range";
    t.levels.(0).(r)

  let parent_index i = i / 2

  (* The leaf, per-parents and per-level walks of [update] are top-level
     recursions threading their counters as arguments, so the hot update
     path carries no closures or reference cells of its own. *)
  let rec refresh_leaves ctx ~recycle arena model leaves changed =
    match changed with
    | [] -> ()
    | r :: rest ->
        let old = leaves.(r) in
        leaves.(r) <- class_factor ctx model r;
        if recycle then Arena.release arena old;
        refresh_leaves ctx ~recycle arena model leaves rest

  let rec recombine_parents ctx counter ~recycle arena levels k parents
      combines =
    match parents with
    | [] -> combines
    | j :: rest ->
        let level = levels.(k) in
        let n = Array.length level in
        let combines =
          if (2 * j) + 1 < n then begin
            (* A two-child position always holds a combine result of its
               own — carries only land on trailing odd positions — so
               the node replaced here is referenced nowhere else in the
               new tree and may be recycled. *)
            let old = levels.(k + 1).(j) in
            levels.(k + 1).(j) <-
              combine_into ctx counter level.(2 * j) level.((2 * j) + 1);
            if recycle then Arena.release arena old;
            combines + 1
          end
          else begin
            (* Trailing carry: share the (new) child upward; the old
               carried node is the old child, recycled — if at all — at
               its own position. *)
            levels.(k + 1).(j) <- level.(2 * j);
            combines
          end
        in
        recombine_parents ctx counter ~recycle arena levels k rest combines

  let rec update_levels ctx counter ~recycle arena levels k frontier combines =
    if k >= Array.length levels - 1 then combines
    else begin
      let parents = List.sort_uniq compare (List.map parent_index frontier) in
      let combines =
        recombine_parents ctx counter ~recycle arena levels k parents combines
      in
      update_levels ctx counter ~recycle arena levels (k + 1) parents combines
    end

  (* Recombines only the root paths of the changed leaves.  Untouched
     nodes are shared physically with [t], and [combine] is a
     deterministic function of its operands, so the updated tree is
     bit-identical to [build model] at every node.  With [~recycle:true]
     the caller promises to drop [t] entirely: every node the update
     replaces — changed leaves and the recombined internal nodes above
     them — is handed to the arena free list, where the next acquire
     resets it, corrupting [t] (but never the updated tree, which shares
     only untouched nodes). *)
  let update ?(recycle = false) t model =
    if
      Model.inputs model <> Model.inputs t.model
      || Model.outputs model <> Model.outputs t.model
    then invalid_arg "Convolution.Factor_tree.update: switch dimensions differ";
    if Model.num_classes model <> Model.num_classes t.model then
      invalid_arg "Convolution.Factor_tree.update: class count differs";
    match Model.class_delta t.model model with
    | None -> assert false (* dimensions and class count checked above *)
    | Some [] ->
        (* lint: alloc=record -- unchanged classes: one record, no combines *)
        { t with model; combines = 0; banded = 0 }
    | Some changed ->
        let arena = arena t.ctx in
        (* lint: alloc=counter -- solve-local banded counter, one per update *)
        let counter = Atomic.make 0 in
        (* lint: alloc=levels -- spine copy, O(log R); nodes stay shared *)
        let levels = Array.map Array.copy t.levels in
        refresh_leaves t.ctx ~recycle arena model levels.(0) changed;
        let combines =
          update_levels t.ctx counter ~recycle arena levels 0 changed 0
        in
        (* lint: alloc=record -- the updated tree value itself *)
        {
          model;
          ctx = t.ctx;
          levels;
          combines;
          banded = Atomic.get counter;
        }

  (* Prefix x suffix sweep: walking the tree top-down with
       comp(root)        = (empty product)
       comp(child)       = comp(parent) * (sibling of child)
     gives at each leaf r the complement H_{-r} = prod_{s<>r} C_s in
     2(R-1) - 2 combines total.  The empty product is represented as
     [None] (combining with the unit profile is a bitwise no-op but
     costs a full O(cap^2) pass), so the root's children receive their
     sibling's value directly, shared physically.  Combines performed
     by the sweep that do not survive into the returned row are
     unreachable afterwards and go back to the arena free list. *)
  let leave_one_out t =
    let num = num_classes t in
    if num = 0 then [||]
    else if num = 1 then
      (* lint: alloc=array -- the degenerate one-class result *)
      [| unit_profile t.ctx.cap |]
    else begin
      (* lint: alloc=comp,fresh,array -- working row + fresh-node ledger *)
      let comp = ref [| None |] and fresh = ref [] in
      for k = Array.length t.levels - 1 downto 1 do
        let children = t.levels.(k - 1) in
        let n = Array.length children in
        let parent_comp = !comp in
        comp :=
          (* lint: alloc=array,closure -- next complement row, one per level *)
          Array.init n (fun i ->
              let above = parent_comp.(i / 2) in
              let sibling =
                if i land 1 = 0 then
                  if i + 1 < n then Some children.(i + 1) else None
                else Some children.(i - 1)
              in
              match above with
              | None -> sibling
              | Some c -> (
                  match sibling with
                  | None -> above
                  | Some s ->
                      let combined = combine t.ctx c s in
                      fresh := combined :: !fresh;
                      Some combined))
      done;
      let result =
        (* lint: alloc=result -- the R complements, the sweep's result *)
        Array.map (* lint: alloc=closure -- unwrap projection, once per sweep *)
          (function Some l -> l | None -> unit_profile t.ctx.cap)
          !comp
      in
      release_unreturned (arena t.ctx) result !fresh;
      result
    end
end

type t = {
  model : Model.t;
  ctx : context;
  tree : Factor_tree.t;
  diag : Lattice.t; (* diag.(j) = G(N1 - j, N2 - j) *)
  shifted : Lattice.t option array; (* see [shifted_diagonal] *)
  rescales : int; (* see [old_scheme_chunks] *)
  measures : Measures.t;
}

(* The correlation the diagonal and the marginals share:
     coef 2^coef_exp * sum_w F(w) R(w) R(x) / R(w + x)
   over the multiples [w] of [stride] up to [cap - x], with [f] and
   [shift] holding F rebased span by span (see [load_rebased]), stored
   as entry [i] of [dst].  Each w-span meets at most two spans of w + x;
   per segment the pre-sum factors are f(w) (below 1) and
   from_top(w + x) = R(top) / R(w + x) (in (0, 1]), and the one large
   factor 2^shift R(x) / R(top) is applied after the partial sum by
   exponent arithmetic, against a frame as in [kernel]. *)
let correlate ctx (f : Lattice.values) shift ~stride ~coef ~coef_exp dst i x =
  let s = ctx.span and cap = ctx.cap and expo = ctx.expo in
  let wmax = cap - x in
  let r = x land (s - 1) in
  let from_top = ctx.from_top in
  let aligned = s mod stride = 0 in
  let coef = coef *. Float.Array.unsafe_get ctx.mant x in
  (* The frame, as in [kernel]: the largest exponent shift - expo(top)
     of any segment (a w-span meets the y-spans topped at yb + s - 1
     and, when x is not span-aligned, yb + 2 s - 1). *)
  let frame = ref zero_shift and wb = ref 0 in
  while !wb <= wmax do
    let sh = Array.unsafe_get shift (!wb lsr ctx.span_log2) in
    let yb = !wb + x - r in
    frame := imax !frame (sh - Array.unsafe_get expo (imin cap (yb + s - 1)));
    if r > 0 && yb + s <= cap then
      frame :=
        imax !frame (sh - Array.unsafe_get expo (imin cap (yb + (2 * s) - 1)));
    wb := !wb + s
  done;
  let sum = ref 0. and p = ref 0. and q = ref 0. and w = ref 0 in
  wb := 0;
  while !wb <= wmax do
    let wbase = !wb in
    let span_end = imin wmax (wbase + s - 1) in
    let lift = !frame - Array.unsafe_get shift (wbase lsr ctx.span_log2) in
    (* the span holding w + x, starting from the one holding wbase + x *)
    let yb = ref (wbase + x - r) in
    w := if aligned then wbase else (wbase + stride - 1) / stride * stride;
    while !w <= span_end do
      let top = imin cap (!yb + s - 1) in
      let seg_end = imin span_end (top - x) in
      let below = lift + Array.unsafe_get expo top in
      if !w <= seg_end && below >= negligible then
        w := !w + ((((seg_end - !w) / stride) + 1) * stride)
      else begin
        p := 0.;
        q := 0.;
        (* Unit stride gets its own loop, as in [kernel]. *)
        if stride = 1 then
          while !w < seg_end do
            p :=
              !p
              +. Bigarray.Array1.unsafe_get f !w
                 *. Float.Array.unsafe_get from_top (!w + x);
            q :=
              !q
              +. Bigarray.Array1.unsafe_get f (!w + 1)
                 *. Float.Array.unsafe_get from_top (!w + 1 + x);
            w := !w + 2
          done
        else
          while !w + stride <= seg_end do
            p :=
              !p
              +. Bigarray.Array1.unsafe_get f !w
                 *. Float.Array.unsafe_get from_top (!w + x);
            q :=
              !q
              +. Bigarray.Array1.unsafe_get f (!w + stride)
                 *. Float.Array.unsafe_get from_top (!w + stride + x);
            w := !w + (2 * stride)
          done;
        if !w <= seg_end then begin
          p :=
            !p
            +. Bigarray.Array1.unsafe_get f !w
               *. Float.Array.unsafe_get from_top (!w + x);
          w := !w + stride
        end;
        if below < negligible then
          sum :=
            !sum
            +. (!p +. !q) *. coef
               *. Float.Array.unsafe_get ctx.inv_mant top
               *. Float.Array.unsafe_get pow2_down below
      end;
      yb := !yb + s
    done;
    wb := wbase + s
  done;
  (* normalised as [Lattice.set_scaled] would, without its call *)
  let dv = Lattice.values dst and de = Lattice.exponents dst in
  if Float.abs !sum > 0. then begin
    let e = exponent_of !sum in
    Bigarray.Array1.unsafe_set dv i (scale2 !sum (-e));
    Bigarray.Array1.unsafe_set de i
      (Int32.of_int (Array.unsafe_get expo x + coef_exp + !frame + e))
  end
  else begin
    Bigarray.Array1.unsafe_set dv i 0.;
    Bigarray.Array1.unsafe_set de i 0l
  end

(* One shared diagonal pass serves every class's measures:
     diag.(j) = G(N1-j, N2-j) = sum_u H(u) w(u, j),
   since P(N_i - j, u) = P(N_i, u + j) / P(N_i, j) makes the depth-j
   ratio the combine weight R(u) R(j) / R(u + j). *)
let diagonal ctx h =
  let arena = arena ctx in
  (* From the arena free list: a recycled tree's diagonal is re-acquired
     by the next solve of the same shape. *)
  let diag = Arena.acquire arena ~cap:ctx.cap ~stride:1 in
  load_rebased ctx arena.Arena.left arena.Arena.left_shift h;
  for j = 0 to ctx.cap do
    correlate ctx arena.Arena.left arena.Arena.left_shift
      ~stride:(Lattice.stride h) ~coef:1. ~coef_exp:0 diag j j
  done;
  diag

(* Entry [i] of [l] over entry [j] — exact, since the exponents are
   subtracted before the quotient is scaled. *)
let ratio l i j =
  scale2
    (Lattice.mantissa l i /. Lattice.mantissa l j)
    (Lattice.exponent l i - Lattice.exponent l j)

(* Unified concurrency chain at reservation depth [d]: the diagonal entry
   diag.(d + j) is G(N1-d-j, N2-d-j), i.e. the normalisation of the same
   model with [d] ports removed from each side — reduced models preserve
   the per-pair parameters (see Revenue.reduced_model), so one diagonal
   serves every depth.  The chain walks from the deepest feasible point
   up to (N1-d, N2-d), applying
   E_r(p) = P(n1-d,a) P(n2-d,a) B_r(p) (rho_r + (beta_r/mu_r) E_r(p - a I)).
   At diagonal index j = d + m a the factor P(n1-m a,a) P(n2-m a,a) B_r
   is R(j) / R(j + a) times diag.(j + a) / diag.(j): both ratios are
   formed as mantissa quotients and one exponent difference, so the
   step is exact at any bandwidth and depth.  For Poisson classes the
   recursion degenerates to E_r = rho_r P(N1-d,a) P(N2-d,a) B_r.

   A Bernoulli class (beta < 0) does not take the chain: near source
   saturation rho + (beta/mu) E is a difference of nearly equal terms
   whose rounding error each step multiplies by P P B |beta/mu|, so the
   chain diverges (Algorithm 2's recurrence shares the weakness).  Its
   [shifted] diagonal instead gives E_r exactly, as a ratio of positive
   sums (see [shifted_diagonal]).  [depth = 0] is the paper's Step 3
   measure; deeper values feed the batched shadow costs. *)
let concurrency_at_depth ctx model diag shifted ~depth r =
  let a = Model.bandwidth model r in
  let rho = Model.rho model r in
  let b_over_mu = Model.beta_over_mu model r in
  let cap = min (Model.inputs model) (Model.outputs model) - depth in
  let budget = if cap < 0 then -1 else cap in
  (* P(N1-j, a) P(N2-j, a) num.(j + a) / diag.(j), for j + a within the
     budget *)
  let step num j =
    if j + a > depth + budget then 0.
    else
      scale2
        (Float.Array.get ctx.mant j /. Float.Array.get ctx.mant (j + a)
        *. (Lattice.mantissa num (j + a) /. Lattice.mantissa diag j))
        (ctx.expo.(j) - ctx.expo.(j + a) + Lattice.exponent num (j + a)
        - Lattice.exponent diag j)
  in
  match shifted with
  | Some num -> rho *. step num depth
  | None ->
      let e = ref 0. in
      for m = budget / a downto 0 do
        e := step diag (depth + (m * a)) *. (rho +. (b_over_mu *. !e))
      done;
      !e

(* The identity behind the Bernoulli path: k C(S, k) = S C(S-1, k-1), so
   E_r(N) = rho_r P(N1,a) P(N2,a) G'(N - a I) / G(N), where G' is the
   normalisation with class r's intensity rho shifted to rho + beta/mu
   (one source fewer).  [shifted_diagonal] computes the diagonal of G':
   the tree's root path above leaf r recombined over the shifted leaf
   (O(log R) combines against the untouched siblings), then one
   diagonal pass; every intermediate goes back to the arena. *)
let shifted_diagonal ctx (tree : Factor_tree.t) r =
  let model = tree.Factor_tree.model in
  let levels = tree.Factor_tree.levels in
  let leaf =
    factor_of ctx ~a:(Model.bandwidth model r)
      ~rho:(Model.rho model r +. Model.beta_over_mu model r)
      ~theta:(Model.beta_over_mu model r)
  in
  let rec climb k i node fresh =
    if k >= Array.length levels - 1 then (node, fresh)
    else begin
      let level = levels.(k) in
      let sibling = i lxor 1 in
      if sibling >= Array.length level then climb (k + 1) (i / 2) node fresh
      else begin
        let combined =
          if i land 1 = 0 then combine ctx node level.(sibling)
          else combine ctx level.(sibling) node
        in
        climb (k + 1) (i / 2) combined (combined :: fresh)
      end
    end
  in
  let root, fresh = climb 0 r leaf [ leaf ] in
  let diag = diagonal ctx root in
  List.iter (Arena.release (arena ctx)) fresh;
  diag

(* The paper's Section 6 scheme kept one scale per profile and rescaled
   by 2^-830 chunks whenever a magnitude passed 1e250 (about 2^830): an
   entry, or the product of two operands' peaks a combine was about to
   form.  Nothing is rescaled any more; [old_scheme_chunks] survives as
   a diagnostic of how deep into that regime a solve sits — the chunks
   that bring the binary exponent of the root's largest entry, or of
   the last combine's operand-peak product, to 830 or below (0 for
   every workload in the paper). *)
let rescale_bits = 830

(* The binary exponent of a profile's largest entry ([min_int] for the
   all-zero profile): mantissas are normalised, so its largest
   exponent. *)
let peak_exponent l =
  let v = Lattice.values l and e = Lattice.exponents l in
  let top = ref min_int in
  for u = 0 to Lattice.capacity l do
    if Float.abs (Bigarray.Array1.unsafe_get v u) > 0. then
      top := imax !top (Int32.to_int (Bigarray.Array1.unsafe_get e u))
  done;
  !top

let old_scheme_chunks (tree : Factor_tree.t) =
  let levels = tree.Factor_tree.levels in
  let depth = Array.length levels - 1 in
  let operands =
    if depth = 0 then min_int
    else
      let a = peak_exponent levels.(depth - 1).(0)
      and b = peak_exponent levels.(depth - 1).(1) in
      if a > min_int && b > min_int then a + b else min_int
  in
  let worst = imax operands (peak_exponent levels.(depth).(0)) in
  if worst <= rescale_bits then 0 else (worst - 1) / rescale_bits

let of_tree (tree : Factor_tree.t) =
  let model = tree.Factor_tree.model in
  let ctx = tree.Factor_tree.ctx in
  let h = Factor_tree.root tree in
  let diag = diagonal ctx h in
  let num_classes = Model.num_classes model in
  let shifted =
    Array.init num_classes (fun r ->
        if Model.beta_over_mu model r < 0. then
          Some (shifted_diagonal ctx tree r)
        else None)
  in
  let non_blocking =
    Array.init num_classes (fun r ->
        let a = Model.bandwidth model r in
        if Model.inputs model < a || Model.outputs model < a then 0.
        else ratio diag a 0)
  in
  let concurrency =
    Array.init num_classes (fun r ->
        concurrency_at_depth ctx model diag shifted.(r) ~depth:0 r)
  in
  let measures = Measures.of_concurrencies ~model ~non_blocking ~concurrency in
  {
    model;
    ctx;
    tree;
    diag;
    shifted;
    rescales = old_scheme_chunks tree;
    measures;
  }

(* The diagonals a solve owns, besides its tree nodes. *)
let release_diagonals arena t =
  Arena.release arena t.diag;
  for r = 0 to Array.length t.shifted - 1 do
    match t.shifted.(r) with Some d -> Arena.release arena d | None -> ()
  done

let solve ?map model = of_tree (Factor_tree.build ?map model)

let solve_delta ?(recycle = false) ~previous model =
  let tree = Factor_tree.update ~recycle previous.tree model in
  (* The caller promised to drop [previous] entirely, and the fresh
     diagonals below are computed from the updated tree, so the previous
     solve's diagonals can seed the free list first. *)
  if recycle then
    release_diagonals (arena previous.ctx) previous;
  of_tree tree

(* Returns every lattice a dropped solve owns to the current domain's
   free list for this context: all leaves, every internal node that is a
   combine result of its own (a trailing odd node is a physical alias of
   its child, carried upward, so releasing it once at its home position
   is both necessary and sufficient), and the diagonals.  The caller must
   guarantee nothing else references [t] — e.g. a serve registry entry
   evicted once the batch that evicted it has fully drained. *)
let recycle t =
  let arena = arena t.ctx in
  let levels = t.tree.Factor_tree.levels in
  let leaves = levels.(0) in
  for i = 0 to Array.length leaves - 1 do
    Arena.release arena leaves.(i)
  done;
  for k = 1 to Array.length levels - 1 do
    let children = Array.length levels.(k - 1) in
    let level = levels.(k) in
    for j = 0 to Array.length level - 1 do
      if (2 * j) + 1 <= children - 1 then Arena.release arena level.(j)
    done
  done;
  release_diagonals arena t

let solve_incremental ~previous ~class_index model =
  let num_classes = Model.num_classes model in
  if
    Model.inputs model <> Model.inputs previous.model
    || Model.outputs model <> Model.outputs previous.model
  then invalid_arg "Convolution.solve_incremental: switch dimensions differ";
  if num_classes <> Model.num_classes previous.model then
    invalid_arg "Convolution.solve_incremental: class count differs";
  if class_index < 0 || class_index >= num_classes then
    invalid_arg "Convolution.solve_incremental: class index out of range";
  let old_classes = Model.classes previous.model
  and new_classes = Model.classes model in
  for r = 0 to num_classes - 1 do
    if r <> class_index && not (Traffic.equal old_classes.(r) new_classes.(r))
    then
      invalid_arg
        (Printf.sprintf
           "Convolution.solve_incremental: class %d also differs from the \
            previous solve (only class %d may change)"
           r class_index)
  done;
  solve_delta ~previous model

let model t = t.model
let measures t = t.measures
let tree t = t.tree
let combine_count t = t.tree.Factor_tree.combines
let banded_combine_count t = t.tree.Factor_tree.banded

let concurrencies_at_depth t ~depth =
  if depth < 0 || depth > t.ctx.cap then
    invalid_arg "Convolution.concurrencies_at_depth: depth outside diagonal";
  Array.init (Model.num_classes t.model) (fun r ->
      concurrency_at_depth t.ctx t.model t.diag t.shifted.(r) ~depth r)

(* Marginal weights for one class against its complement product: with
   T = H_{-r} and C = C_r,
     p(k_r = m) ∝ C(m a) sum_w T(w) w(m a, w),
   one [correlate] per [m], each weight kept as a mantissa and an
   exponent until the largest is known; the weights are then scaled
   against it, so only those below 2^-1074 of the peak read as zero. *)
let marginal_weights ctx own comp =
  let a = Lattice.stride own in
  let arena = arena ctx in
  load_rebased ctx arena.Arena.right arena.Arena.right_shift comp;
  let last = ctx.cap / a in
  let w = Lattice.create ~capacity:last () in
  for m = 0 to last do
    let u = m * a in
    correlate ctx arena.Arena.right arena.Arena.right_shift
      ~stride:(Lattice.stride comp) ~coef:(Lattice.mantissa own u)
      ~coef_exp:(Lattice.exponent own u) w m u
  done;
  let peak = peak_exponent w in
  Array.init (last + 1) (fun m ->
      scale2 (Lattice.mantissa w m) (Lattice.exponent w m - peak))

let per_class_distributions t =
  let complements = Factor_tree.leave_one_out t.tree in
  Array.mapi
    (fun r comp ->
      let own = Factor_tree.leaf t.tree r in
      let weights = marginal_weights t.ctx own comp in
      Measures.distribution_of_weights ~model:t.model ~class_index:r ~weights)
    complements

let log_two = Logspace.log_checked 2.

(* G(n1, n2) = sum_u H(u) P(n1, u) P(n2, u); with H stored tilted,
   each term is H(u) P(n1, u) P(n2, u) R(u).  The falling factorials
   run as a mantissa/exponent chain against the R table and the sum
   carries a running exponent, so every lattice point — G(0, 0) = 1 as
   much as the corner — is exact. *)
let log_g t ~inputs ~outputs =
  if
    inputs < 0 || outputs < 0
    || inputs > Model.inputs t.model
    || outputs > Model.outputs t.model
  then invalid_arg "Convolution.log_g: outside lattice";
  let ctx = t.ctx in
  let h = Factor_tree.root t.tree in
  let sum = ref (0., 0) and pm = ref 1. and pe = ref 0 in
  for u = 0 to min inputs outputs do
    if u > 0 then begin
      pm := !pm *. float_of_int ((inputs - u + 1) * (outputs - u + 1));
      let s = exponent_of !pm in
      pm := scale2 !pm (-s);
      pe := !pe + s
    end;
    sum :=
      accumulate !sum
        (Lattice.mantissa h u *. !pm *. Float.Array.get ctx.mant u)
        (!pe + ctx.expo.(u) + Lattice.exponent h u)
  done;
  let m, e = !sum in
  Logspace.log_checked m +. (float_of_int e *. log_two)

let log_normalization t =
  log_g t ~inputs:(Model.inputs t.model) ~outputs:(Model.outputs t.model)

let rescale_count t = t.rescales
