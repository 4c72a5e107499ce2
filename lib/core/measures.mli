(** Performance measures of a solved crossbar model (paper Section 3).

    All three solvers (brute enumeration, Algorithm 1, Algorithm 2) return
    this record so they can be cross-checked and interchanged. *)

type per_class = {
  name : string;
  bandwidth : int; (* a_r *)
  offered_load : float; (* aggregate rho~_r = alpha~_r / mu_r *)
  non_blocking : float;
      (* B_r = G(N - a_r I)/G(N): probability a specific set of a_r inputs
         and a_r outputs is entirely idle (paper eq. 4) *)
  blocking : float; (* 1 - B_r: what the paper's figures plot *)
  concurrency : float; (* E_r = sum_k k_r pi(k) *)
  throughput : float; (* accepted-connection completion rate, E_r * mu_r *)
}

type t = {
  per_class : per_class array;
  busy_ports : float; (* E[k . A] — mean busy inputs (= busy outputs) *)
  input_utilization : float; (* E[k . A] / N1 *)
  output_utilization : float; (* E[k . A] / N2 *)
}

val class_named : t -> string -> per_class
(** @raise Not_found if no class has that name. *)

val total_throughput : t -> float
(** Unweighted system throughput [sum_r E_r mu_r]. *)

val revenue : t -> weights:float array -> float
(** Weighted throughput [W(N) = sum_r w_r E_r] (paper Section 4).
    @raise Invalid_argument on weight-count mismatch. *)

val of_concurrencies :
  model:Model.t -> non_blocking:float array -> concurrency:float array -> t
(** Assembles the record from per-class [B_r] and [E_r] (used by every
    solver). *)

type distribution = {
  class_index : int;
  name : string;
  bandwidth : int; (* a_r *)
  probabilities : float array;
      (* probabilities.(m) = p(k_r = m), m = 0 .. capacity / a_r *)
  mean : float; (* E[k_r] = sum_m m p(k_r = m) *)
}
(** The full marginal occupancy distribution of one class — what
    {!Convolution.per_class_distributions} batches for every class from
    a single leave-one-out sweep. *)

val distribution_of_weights :
  model:Model.t -> class_index:int -> weights:float array -> distribution
(** Normalises raw (unscaled) marginal weights [w.(m) ∝ p(k_r = m)] into
    a {!distribution}; any common scale factor cancels.
    @raise Invalid_argument on an out-of-range class index, an empty
    vector, or a negative/non-finite weight.
    @raise Failure if the weights sum to zero. *)

val pp : Format.formatter -> t -> unit
