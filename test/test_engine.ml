open Helpers
module Pool = Crossbar_engine.Pool
module Cache = Crossbar_engine.Cache
module Clock = Crossbar_engine.Clock
module Sweep = Crossbar_engine.Sweep
module Telemetry = Crossbar_engine.Telemetry
module Json = Crossbar_engine.Json
module Model = Crossbar.Model
module Solver = Crossbar.Solver
module Measures = Crossbar.Measures

(* ---------- pool ---------- *)

let two_class_model () =
  Model.square ~size:6
    ~classes:
      [ poisson ~name:"p" 0.4; pascal ~name:"q" ~alpha:0.3 ~beta:0.1 () ]

let test_pool_orders_results () =
  let sequential = Pool.run ~domains:1 ~tasks:200 (fun i -> i * i) in
  let parallel = Pool.run ~domains:4 ~tasks:200 (fun i -> i * i) in
  check_bool "same results" true (sequential = parallel);
  check_int "length" 200 (Array.length parallel);
  Array.iteri (fun i v -> check_int "in index order" (i * i) v) parallel

let test_pool_empty_and_single () =
  check_int "no tasks" 0 (Array.length (Pool.run ~domains:4 ~tasks:0 Fun.id));
  check_bool "single task" true
    (Pool.run ~domains:4 ~tasks:1 (fun i -> 10 * i) = [| 0 |])

let test_pool_propagates_exception () =
  match
    Pool.run ~domains:3 ~tasks:50 (fun i ->
        if i = 25 then failwith "task 25 exploded" else i)
  with
  | _ -> Alcotest.fail "expected the task exception to propagate"
  | exception Failure message ->
      check_bool "message preserved" true
        (String.equal message "task 25 exploded")

let test_pool_rejects_bad_arguments () =
  Helpers.check_invalid_contains "domains < 1" ~substring:"domains=0"
    (fun () -> ignore (Pool.run ~domains:0 ~tasks:4 Fun.id));
  Helpers.check_invalid_contains "tasks < 0" ~substring:"tasks=-1" (fun () ->
      ignore (Pool.run ~domains:2 ~tasks:(-1) Fun.id))

let test_pool_more_domains_than_tasks () =
  (* Asking for more workers than tasks must neither deadlock nor spawn
     idle domains that disturb the results. *)
  let results = Pool.run ~domains:8 ~tasks:3 (fun i -> i + 100) in
  check_bool "all tasks served" true (results = [| 100; 101; 102 |])

let test_pool_first_failure_wins () =
  (* With several failing tasks, exactly one exception is kept and
     raised after every worker has joined; the pool stays usable. *)
  (match
     Pool.run ~domains:4 ~tasks:64 (fun i ->
         if i mod 2 = 1 then failwith (Printf.sprintf "task %d failed" i)
         else i)
   with
  | _ -> Alcotest.fail "expected a task failure to propagate"
  | exception Failure message ->
      check_bool "one of the raised failures" true
        (String.length message > String.length "task "
        && String.equal (String.sub message 0 5) "task "));
  (* The raise happened after join: the next run must work normally. *)
  let again = Pool.run ~domains:4 ~tasks:10 (fun i -> i * 2) in
  check_int "pool reusable after failure" 18 again.(9)

(* Spin until [flag] is set, for at most five seconds: a broken pool
   fails the test instead of hanging it. *)
let await_flag flag =
  let started = Clock.now () in
  while (not (Atomic.get flag)) && Clock.elapsed_since started < 5.0 do
    Domain.cpu_relax ()
  done;
  Atomic.get flag

let test_pool_nested_run_inline () =
  (* A task calling Pool.run finds the worker domains busy and runs its
     inner fan-out inline: same array as the all-sequential run. *)
  let nested domains =
    Pool.run ~domains ~tasks:6 (fun i ->
        Pool.run ~domains ~tasks:9 (fun j -> (i * 100) + j))
  in
  check_bool "nested fan-out equals ~domains:1" true (nested 2 = nested 1)

let test_pool_concurrent_run_inline () =
  (* A second domain calling Pool.run while a fan-out is in flight gets
     the same answer as ~domains:1 (it runs inline, never waits for the
     busy workers). *)
  let in_flight = Atomic.make false and answered = Atomic.make false in
  let expected = Pool.run ~domains:1 ~tasks:50 (fun i -> i * 3) in
  let second =
    Domain.spawn (fun () ->
        ignore (await_flag in_flight : bool);
        let result = Pool.run ~domains:2 ~tasks:50 (fun i -> i * 3) in
        Atomic.set answered true;
        result)
  in
  let outer =
    Pool.run ~domains:2 ~tasks:2 (fun i ->
        Atomic.set in_flight true;
        await_flag answered && i >= 0)
  in
  check_bool "second domain answered during the fan-out" true
    (Array.for_all Fun.id outer);
  check_bool "concurrent fan-out equals ~domains:1" true
    (Domain.join second = expected)

let test_pool_raise_after_every_band () =
  (* Task 0 raises only once task 1 is running on the other band; the
     exception must not surface before task 1 has finished. *)
  let slow_started = Atomic.make false and slow_finished = Atomic.make false in
  (match
     Pool.run ~domains:2 ~tasks:2 (fun i ->
         if i = 0 then begin
           ignore (await_flag slow_started : bool);
           failwith "task 0 failed"
         end
         else begin
           Atomic.set slow_started true;
           Unix.sleepf 0.02;
           Atomic.set slow_finished true
         end)
   with
  | _ -> Alcotest.fail "expected task 0's failure to propagate"
  | exception Failure message ->
      check_bool "task 0's failure" true (String.equal message "task 0 failed");
      check_bool "the other band finished before the raise" true
        (Atomic.get slow_finished));
  check_bool "next run works" true
    (Pool.run ~domains:2 ~tasks:4 (fun i -> i + 1) = [| 1; 2; 3; 4 |])

let test_pool_batches_reuse_workers () =
  (* Every daemon batch fans out on the same parked domains: after the
     first two-tree batch, a thousand more leave the pool's size alone. *)
  let module Batcher = Crossbar_serve.Batcher in
  let module Registry = Crossbar_serve.Registry in
  let module Protocol = Crossbar_serve.Protocol in
  let registry = Registry.create () and telemetry = Telemetry.create () in
  let model = two_class_model () in
  let request id query = { Protocol.id = Json.Int id; query } in
  let batch queries =
    Batcher.execute ~domains:2 ~registry ~telemetry
      (Array.of_list (List.mapi request queries))
  in
  ignore
    (batch
       [
         Protocol.Solve { tree = "a"; model };
         Protocol.Solve { tree = "b"; model };
       ]);
  let first = Crossbar.Band_pool.size () in
  check_bool "first two-tree batch used the pool" true (first >= 1);
  for _ = 1 to 1000 do
    ignore
      (batch [ Protocol.Blocking { tree = "a" }; Protocol.Blocking { tree = "b" } ])
  done;
  check_int "no pool growth per batch" first (Crossbar.Band_pool.size ())

(* The CROSSBAR_DOMAINS override: valid values are honoured, malformed
   or non-positive values are a hard configuration error.  putenv has no
   inverse, so the original value (or a safe default) is always
   restored. *)
let with_crossbar_domains value f =
  let original = Sys.getenv_opt "CROSSBAR_DOMAINS" in
  Unix.putenv "CROSSBAR_DOMAINS" value;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "CROSSBAR_DOMAINS"
        (match original with Some v -> v | None -> "2"))
    f

let test_pool_env_override () =
  with_crossbar_domains "3" (fun () ->
      check_int "valid override honoured" 3 (Pool.recommended_domains ()));
  with_crossbar_domains " 5 " (fun () ->
      check_int "whitespace trimmed" 5 (Pool.recommended_domains ()));
  with_crossbar_domains "0" (fun () ->
      check_raises_invalid "zero domains" (fun () ->
          ignore (Pool.recommended_domains ())));
  with_crossbar_domains "-2" (fun () ->
      check_raises_invalid "negative domains" (fun () ->
          ignore (Pool.recommended_domains ())));
  with_crossbar_domains "many" (fun () ->
      check_raises_invalid "non-integer" (fun () ->
          ignore (Pool.recommended_domains ())));
  with_crossbar_domains "" (fun () ->
      check_raises_invalid "empty string" (fun () ->
          ignore (Pool.recommended_domains ())));
  (* A malformed override must also stop Pool.run's default width. *)
  with_crossbar_domains "zero" (fun () ->
      check_raises_invalid "run with malformed env" (fun () ->
          ignore (Pool.run ~tasks:2 Fun.id)))

(* ---------- cache keying ---------- *)

let test_cache_structural_hit () =
  let cache = Cache.create () in
  (* Two structurally equal models built independently share the key. *)
  let a = two_class_model () and b = two_class_model () in
  check_bool "equal keys" true
    (String.equal (Cache.key_of_model a) (Cache.key_of_model b));
  let solution_a, hit_a = Cache.find_or_solve cache a in
  let solution_b, hit_b = Cache.find_or_solve cache b in
  check_bool "first is a miss" false hit_a;
  check_bool "second is a hit" true hit_b;
  check_bool "same solution" true (solution_a == solution_b);
  check_int "hits" 1 (Cache.hits cache);
  check_int "misses" 1 (Cache.misses cache);
  check_close "hit rate" 0.5 (Cache.hit_rate cache)

let test_cache_perturbed_rate_misses () =
  let cache = Cache.create () in
  let base = two_class_model () in
  let perturbed =
    Model.map_class base 0 (fun c ->
        Crossbar.Traffic.with_alpha c (c.Crossbar.Traffic.alpha *. (1. +. 1e-13)))
  in
  check_bool "distinct keys" false
    (String.equal (Cache.key_of_model base) (Cache.key_of_model perturbed));
  ignore (Cache.find_or_solve cache base);
  let _, hit = Cache.find_or_solve cache perturbed in
  check_bool "perturbed rate misses" false hit;
  check_int "two entries" 2 (Cache.size cache)

let cache_hammer_prop =
  (* Many domains hammering one cache on a handful of distinct models: the
     counters must balance, the table must hold exactly the distinct keys,
     and every returned solution must be bit-identical to a direct solve. *)
  QCheck2.Test.make ~name:"cache: domains:4 hammer stays consistent" ~count:10
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 2 5) Helpers.random_model_gen)
    (fun models ->
      let models = Array.of_list models in
      let n = Array.length models in
      let direct = Array.map Solver.solve_full models in
      let distinct =
        List.length
          (List.sort_uniq String.compare
             (Array.to_list (Array.map Cache.key_of_model models)))
      in
      let cache = Cache.create () in
      let tasks = 64 in
      let results =
        Pool.run ~domains:4 ~tasks (fun i ->
            let which = i mod n in
            let solution, _hit = Cache.find_or_solve cache models.(which) in
            (which, solution))
      in
      check_int "hits + misses = tasks" tasks
        (Cache.hits cache + Cache.misses cache);
      check_int "size = distinct models" distinct (Cache.size cache);
      check_bool "at least one miss per distinct model" true
        (Cache.misses cache >= distinct);
      Array.iter
        (fun (which, (solution : Solver.solution)) ->
          check_bool "log G bit-identical to direct solve" true
            (Int64.equal
               (Int64.bits_of_float solution.Solver.log_normalization)
               (Int64.bits_of_float direct.(which).Solver.log_normalization)))
        results;
      true)

let test_cache_algorithm_in_key () =
  let model = two_class_model () in
  check_bool "algorithms key separately" false
    (String.equal
       (Cache.key_of_model ~algorithm:Solver.Convolution model)
       (Cache.key_of_model ~algorithm:Solver.Mean_value model))

(* ---------- memo capacity / eviction ---------- *)

let memo_get memo key value =
  fst (Cache.Memo.find_or_compute memo key (fun () -> value))

let test_memo_capacity_bounds_size () =
  let memo = Cache.Memo.create ~capacity:2 () in
  check_int "a" 1 (memo_get memo "a" 1);
  check_int "b" 2 (memo_get memo "b" 2);
  check_int "c" 3 (memo_get memo "c" 3);
  check_int "size stays at capacity" 2 (Cache.Memo.size memo);
  check_int "one eviction" 1 (Cache.Memo.evictions memo);
  check_int "misses" 3 (Cache.Memo.misses memo);
  check_int "hits" 0 (Cache.Memo.hits memo)

let test_memo_evicts_least_recently_used () =
  let memo = Cache.Memo.create ~capacity:2 () in
  ignore (memo_get memo "a" 1);
  ignore (memo_get memo "b" 2);
  (* Touch "a": it becomes the most recently used, so inserting "c"
     must displace "b", not "a". *)
  check_int "hit refreshes recency" 1 (memo_get memo "a" 99);
  ignore (memo_get memo "c" 3);
  check_int "a survives" 1 (memo_get memo "a" 99);
  check_int "b was evicted and recomputes" 20 (memo_get memo "b" 20);
  check_int "evictions" 2 (Cache.Memo.evictions memo)

let test_memo_unbounded_never_evicts () =
  let memo = Cache.Memo.create () in
  for i = 0 to 99 do
    ignore (memo_get memo (string_of_int i) i)
  done;
  check_int "all entries retained" 100 (Cache.Memo.size memo);
  check_int "no evictions" 0 (Cache.Memo.evictions memo)

let test_memo_clear_resets_stats () =
  (* clear returns the memo to its freshly-created state: entries AND
     statistics.  Keeping stale hit/miss counts across a clear made
     post-clear hit rates unreadable (a cleared cache reported the old
     warm rate while serving nothing but misses). *)
  let memo = Cache.Memo.create ~capacity:4 () in
  ignore (memo_get memo "a" 1);
  ignore (memo_get memo "a" 1);
  ignore (memo_get memo "b" 2);
  ignore (memo_get memo "c" 3);
  ignore (memo_get memo "d" 4);
  ignore (memo_get memo "e" 5);
  check_bool "setup saw an eviction" true (Cache.Memo.evictions memo > 0);
  Cache.Memo.clear memo;
  check_int "emptied" 0 (Cache.Memo.size memo);
  check_int "hits reset" 0 (Cache.Memo.hits memo);
  check_int "misses reset" 0 (Cache.Memo.misses memo);
  check_int "evictions reset" 0 (Cache.Memo.evictions memo);
  (* Counting restarts from zero, exactly as on a fresh memo. *)
  check_int "recomputes after clear" 7 (memo_get memo "a" 7);
  check_int "one miss since clear" 1 (Cache.Memo.misses memo);
  check_int "hit counts again" 7 (memo_get memo "a" 9);
  check_int "one hit since clear" 1 (Cache.Memo.hits memo)

let test_memo_find_and_set () =
  let memo = Cache.Memo.create ~capacity:2 () in
  check_bool "find on empty misses" true (Cache.Memo.find memo "a" = None);
  check_int "find counted the miss" 1 (Cache.Memo.misses memo);
  Cache.Memo.set memo "a" 1;
  check_bool "set then find" true (Cache.Memo.find memo "a" = Some 1);
  Cache.Memo.set memo "a" 10;
  check_bool "set overwrites in place" true
    (Cache.Memo.find memo "a" = Some 10);
  check_int "overwrite is not an insert" 1 (Cache.Memo.size memo);
  (* set participates in LRU: freshly set "b", then touch "a", then set
     "c" — "b" is the least recently used and must be the one evicted. *)
  Cache.Memo.set memo "b" 2;
  ignore (Cache.Memo.find memo "a");
  Cache.Memo.set memo "c" 3;
  check_int "capacity held" 2 (Cache.Memo.size memo);
  check_bool "a survives (recently used)" true
    (Cache.Memo.find memo "a" = Some 10);
  check_bool "b evicted" true (Cache.Memo.find memo "b" = None);
  check_int "eviction counted" 1 (Cache.Memo.evictions memo)

let test_memo_rejects_bad_capacity () =
  Helpers.check_invalid_contains "capacity 0" ~substring:"capacity=0"
    (fun () -> ignore (Cache.Memo.create ~capacity:0 ()));
  check_raises_invalid "negative capacity" (fun () ->
      ignore (Cache.create ~capacity:(-3) ()))

let test_memo_on_evict_fires_on_capacity () =
  let seen = ref [] in
  let memo =
    Cache.Memo.create ~capacity:2
      ~on_evict:(fun key value -> seen := (key, value) :: !seen)
      ()
  in
  check_int "a" 1 (memo_get memo "a" 1);
  check_int "b" 2 (memo_get memo "b" 2);
  check_bool "no eviction below capacity" true (!seen = []);
  (* "a" is LRU; inserting "c" displaces it — key and value both reach
     the callback. *)
  check_int "c" 3 (memo_get memo "c" 3);
  check_bool "victim delivered with its value" true (!seen = [ ("a", 1) ]);
  check_int "counter agrees with the callback" 1 (Cache.Memo.evictions memo);
  (* A fresh insert via [set] displaces the same way. *)
  Cache.Memo.set memo "d" 4;
  check_bool "set-displaced victim delivered" true
    (List.mem_assoc "b" !seen);
  check_int "two capacity evictions" 2 (Cache.Memo.evictions memo)

let test_memo_on_evict_quiet_on_replace_and_clear () =
  let fired = ref 0 in
  let memo =
    Cache.Memo.create ~capacity:2 ~on_evict:(fun _ _ -> incr fired) ()
  in
  Cache.Memo.set memo "a" 1;
  Cache.Memo.set memo "b" 2;
  (* In-place replacement is the caller handing over a new value — not
     displacement; clear is an explicit drop.  Neither notifies, exactly
     mirroring what [evictions] counts. *)
  Cache.Memo.set memo "a" 10;
  check_int "replace does not notify" 0 !fired;
  Cache.Memo.clear memo;
  check_int "clear does not notify" 0 !fired;
  check_int "nothing counted either" 0 (Cache.Memo.evictions memo)

let test_memo_on_evict_may_reenter () =
  (* The callback runs after the lock is released, so an on_evict that
     re-enters the memo (as the serve registry's bookkeeping may) must
     not deadlock. *)
  let memo_holder = ref None in
  let reentered = ref 0 in
  let memo =
    Cache.Memo.create ~capacity:1
      ~on_evict:(fun _ _ ->
        match !memo_holder with
        | Some memo ->
            incr reentered;
            ignore (Cache.Memo.size memo);
            ignore (Cache.Memo.find memo "probe")
        | None -> ())
      ()
  in
  memo_holder := Some memo;
  check_int "a" 1 (memo_get memo "a" 1);
  check_int "b displaces a" 2 (memo_get memo "b" 2);
  check_bool "callback re-entered the memo" true (!reentered > 0)

let test_bounded_solver_cache_still_correct () =
  (* A solver cache squeezed below the working set must recompute, never
     corrupt: every returned solution stays bit-identical to a direct
     solve. *)
  let cache = Cache.create ~capacity:2 () in
  let models =
    Array.of_list (List.map snd (Helpers.validation_models ()))
  in
  let direct = Array.map Solver.solve_full models in
  for _pass = 1 to 2 do
    Array.iteri
      (fun i model ->
        let solution, _hit = Cache.find_or_solve cache model in
        check_bool "bounded cache solution bit-identical" true
          (Int64.equal
             (Int64.bits_of_float solution.Solver.log_normalization)
             (Int64.bits_of_float direct.(i).Solver.log_normalization)))
      models
  done;
  check_int "size bounded" 2 (Cache.size cache);
  check_bool "evictions happened" true (Cache.evictions cache > 0)

(* ---------- sweep determinism ---------- *)

let bits_equal label a b =
  check_bool label true (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))

let check_outcomes_bit_identical (seq : Sweep.outcome array)
    (par : Sweep.outcome array) =
  check_int "same count" (Array.length seq) (Array.length par);
  Array.iteri
    (fun i (a : Sweep.outcome) ->
      let b = par.(i) in
      bits_equal "log G" (Sweep.log_normalization a) (Sweep.log_normalization b);
      let ma = Sweep.measures a and mb = Sweep.measures b in
      bits_equal "busy ports" ma.Measures.busy_ports mb.Measures.busy_ports;
      Array.iteri
        (fun r (ca : Measures.per_class) ->
          let cb = mb.Measures.per_class.(r) in
          bits_equal "blocking" ca.Measures.blocking cb.Measures.blocking;
          bits_equal "concurrency" ca.Measures.concurrency
            cb.Measures.concurrency;
          bits_equal "throughput" ca.Measures.throughput cb.Measures.throughput)
        ma.Measures.per_class)
    seq

let sweep_determinism_prop =
  QCheck2.Test.make
    ~name:"sweep: domains:1 and domains:4 are bit-identical" ~count:30
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 8) Helpers.random_model_gen)
    (fun batch ->
      let points =
        List.mapi
          (fun i model -> Sweep.point ~label:(string_of_int i) model)
          batch
      in
      let seq = Sweep.run ~domains:1 points in
      let par = Sweep.run ~domains:4 points in
      check_outcomes_bit_identical seq par;
      true)

let test_sweep_warm_cache_identical () =
  (* A duplicated batch through one shared cache: second pass must be all
     hits and still bit-identical to the cold pass. *)
  let cache = Cache.create () in
  let points =
    List.concat_map
      (fun (label, model) -> [ Sweep.point ~label model ])
      (validation_models ())
  in
  let cold = Sweep.run ~domains:2 ~cache points in
  let warm = Sweep.run ~domains:2 ~cache points in
  check_outcomes_bit_identical cold warm;
  Array.iter
    (fun (o : Sweep.outcome) -> check_bool "warm hit" true o.Sweep.from_cache)
    warm

let test_sweep_single_solve_per_model () =
  (* The engine never solves the same model twice: measures and log G
     come from one solve_full, and repeats within a batch hit the cache. *)
  let cache = Cache.create () in
  let telemetry = Telemetry.create () in
  let model = two_class_model () in
  let points = List.init 5 (fun i -> Sweep.point ~label:(string_of_int i) model) in
  let outcomes = Sweep.run ~domains:1 ~cache ~telemetry points in
  check_int "one miss" 1 (Cache.misses cache);
  check_int "four hits" 4 (Cache.hits cache);
  check_int "five records" 5 (Telemetry.count telemetry);
  let solution = outcomes.(0).Sweep.solution in
  let direct = Solver.solve_full model in
  bits_equal "log G matches direct solve_full"
    solution.Solver.log_normalization direct.Solver.log_normalization;
  bits_equal "blocking matches Solver.solve"
    (Solver.solve model).Measures.per_class.(0).Measures.blocking
    solution.Solver.measures.Measures.per_class.(0).Measures.blocking

(* ---------- solve_full consistency ---------- *)

let test_solve_full_matches_components () =
  List.iter
    (fun (label, model) ->
      List.iter
        (fun algorithm ->
          let full = Solver.solve_full ~algorithm model in
          check_close
            (label ^ ": log G in one solve")
            (Solver.log_normalization ~algorithm model)
            full.Solver.log_normalization ~tol:1e-12;
          check_close
            (label ^ ": blocking in one solve")
            (Solver.solve ~algorithm model).Measures.per_class.(0)
              .Measures.blocking
            full.Solver.measures.Measures.per_class.(0).Measures.blocking
            ~tol:1e-12)
        [ Solver.Brute_force; Solver.Convolution; Solver.Mean_value ])
    [ List.hd (validation_models ()); List.nth (validation_models ()) 3 ]

(* ---------- telemetry ---------- *)

let test_telemetry_records_in_point_order () =
  let telemetry = Telemetry.create () in
  let points =
    List.map
      (fun (label, model) -> Sweep.point ~label model)
      (validation_models ())
  in
  ignore (Sweep.run ~domains:3 ~telemetry points);
  let labels = List.map (fun s -> s.Telemetry.label) (Telemetry.solves telemetry) in
  check_bool "labels in point order" true
    (labels = List.map (fun p -> p.Sweep.label) points);
  check_bool "wall time accumulates" true
    (Telemetry.total_wall_seconds telemetry >= 0.);
  List.iter
    (fun s ->
      check_bool "cells recorded" true (s.Telemetry.lattice_cells > 0);
      check_int "no rescales at these sizes" 0 s.Telemetry.rescales)
    (Telemetry.solves telemetry)

let wall_record wall =
  {
    Telemetry.label = "synthetic";
    algorithm = "convolution";
    wall_seconds = wall;
    lattice_cells = 1;
    rescales = 0;
    tree_combines = 0;
    banded_combines = 0;
    from_cache = false;
    from_incremental = false;
  }

let test_telemetry_wall_percentiles () =
  let empty = Telemetry.create () in
  let p50, p95, wall_max = Telemetry.wall_percentiles empty in
  check_close "empty p50" 0. p50;
  check_close "empty p95" 0. p95;
  check_close "empty max" 0. wall_max;
  let single = Telemetry.create () in
  Telemetry.record single (wall_record 0.5);
  let p50, p95, wall_max = Telemetry.wall_percentiles single in
  check_close "single p50" 0.5 p50;
  check_close "single p95" 0.5 p95;
  check_close "single max" 0.5 wall_max;
  (* Nearest rank over {1..4} recorded out of order: p50 is the 2nd
     smallest, p95 the 4th. *)
  let four = Telemetry.create () in
  List.iter (fun w -> Telemetry.record four (wall_record w)) [ 3.; 1.; 4.; 2. ];
  let p50, p95, wall_max = Telemetry.wall_percentiles four in
  check_close "p50 nearest rank" 2. p50;
  check_close "p95 nearest rank" 4. p95;
  check_close "max" 4. wall_max;
  (* 20 records: p95 must exclude only the top record. *)
  let twenty = Telemetry.create () in
  for i = 20 downto 1 do
    Telemetry.record twenty (wall_record (float_of_int i))
  done;
  let p50, p95, wall_max = Telemetry.wall_percentiles twenty in
  check_close "p50 of 20" 10. p50;
  check_close "p95 of 20" 19. p95;
  check_close "max of 20" 20. wall_max

let test_telemetry_clamps_negative_wall () =
  (* A non-monotonic time source could hand record a negative delta;
     it must be stored as zero so totals and percentiles never move
     backwards. *)
  let telemetry = Telemetry.create () in
  Telemetry.record telemetry (wall_record (-0.25));
  Telemetry.record telemetry (wall_record 0.5);
  (match Telemetry.solves telemetry with
  | [ first; second ] ->
      check_close "negative clamped to zero" 0. first.Telemetry.wall_seconds;
      check_close "positive untouched" 0.5 second.Telemetry.wall_seconds
  | _ -> Alcotest.fail "expected two records");
  check_close "total never negative" 0.5
    (Telemetry.total_wall_seconds telemetry);
  let p50, _, _ = Telemetry.wall_percentiles telemetry in
  check_bool "percentiles non-negative" true (p50 >= 0.)

let test_telemetry_snapshot_consistent_under_load () =
  (* to_json must take ONE locked snapshot: while another domain keeps
     recording, every emitted document must agree with itself — the
     solve count equals the record list length, and the total equals the
     sum over exactly those records. *)
  let telemetry = Telemetry.create () in
  let outcomes =
    Pool.run ~domains:2 ~tasks:2 (fun task ->
        if task = 0 then begin
          for i = 1 to 500 do
            Telemetry.record telemetry (wall_record (float_of_int i))
          done;
          true
        end
        else begin
          let consistent = ref true in
          for _ = 1 to 50 do
            match Telemetry.to_json telemetry with
            | Json.Assoc _ as json ->
                let count =
                  match Json.member "solves" json with
                  | Some (Json.Int n) -> n
                  | _ -> -1
                in
                let records =
                  match Json.member "records" json with
                  | Some (Json.List rs) -> rs
                  | _ -> []
                in
                let total =
                  match Json.member "wall_seconds" json with
                  | Some (Json.Float f) -> f
                  | _ -> -1.
                in
                let sum =
                  List.fold_left
                    (fun acc r ->
                      match Json.member "wall_seconds" r with
                      | Some (Json.Float f) -> acc +. f
                      | _ -> acc)
                    0. records
                in
                if count <> List.length records then consistent := false;
                if
                  not
                    (Int64.equal (Int64.bits_of_float total)
                       (Int64.bits_of_float sum))
                then consistent := false
            | _ -> consistent := false
          done;
          !consistent
        end)
  in
  check_bool "recorder finished" true outcomes.(0);
  check_bool "every snapshot self-consistent" true outcomes.(1);
  check_int "all records landed" 500 (Telemetry.count telemetry)

(* ---------- monotonic clock ---------- *)

let test_clock_monotonic () =
  let previous = ref (Clock.now ()) in
  for _ = 1 to 1000 do
    let t = Clock.now () in
    check_bool "never goes backwards" true (t >= !previous);
    previous := t
  done;
  check_bool "now_ns positive" true (Int64.compare (Clock.now_ns ()) 0L > 0)

let test_clock_elapsed_clamped () =
  let started = Clock.now () in
  check_bool "elapsed non-negative" true (Clock.elapsed_since started >= 0.);
  (* A start stamp from the future (the NTP-step scenario the monotonic
     clock exists to rule out) still yields zero, never a negative. *)
  check_close "future start clamps to zero" 0.
    (Clock.elapsed_since (started +. 3600.))

(* ---------- json ---------- *)

let sample_json =
  Json.Assoc
    [
      ("schema", Json.String "crossbar-bench/1");
      ("count", Json.Int 3);
      ("rate", Json.Float 0.062992125984251968);
      ("ok", Json.Bool true);
      ("nothing", Json.Null);
      ("names", Json.List [ Json.String "a\"b\\c"; Json.String "tab\there" ]);
      ("nested", Json.Assoc [ ("empty_list", Json.List []); ("empty", Json.Assoc []) ]);
    ]

let test_json_roundtrip () =
  (match Json.of_string (Json.to_string sample_json) with
  | Ok parsed -> check_bool "compact roundtrip" true (parsed = sample_json)
  | Error m -> Alcotest.failf "compact roundtrip failed: %s" m);
  match Json.of_string (Format.asprintf "%a" Json.pp sample_json) with
  | Ok parsed -> check_bool "pretty roundtrip" true (parsed = sample_json)
  | Error m -> Alcotest.failf "pretty roundtrip failed: %s" m

let test_json_float_fidelity () =
  List.iter
    (fun f ->
      match Json.of_string (Json.to_string (Json.Float f)) with
      | Ok (Json.Float g) ->
          check_bool "float bits survive" true
            (Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g))
      | _ -> Alcotest.fail "float did not roundtrip")
    [ 0.1; 1e-300; 6.02214076e23; -0.0024; Float.pi ];
  (* Non-finite floats must degrade to null, never to invalid tokens. *)
  check_bool "inf is null" true
    (String.equal (Json.to_string (Json.Float Float.infinity)) "null");
  check_bool "nan is null" true
    (String.equal (Json.to_string (Json.Float Float.nan)) "null")

(* ---------- shortest round-trip floats ---------- *)

let float_token f = Json.to_string (Json.Float f)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Significant digits of a float token: its mantissa's digits without
   leading or trailing zeros ("100.0" has 1, "0.0025" has 2). *)
let significant_digits token =
  let mantissa =
    match String.index_opt token 'e' with
    | Some i -> String.sub token 0 i
    | None -> token
  in
  let digits =
    String.concat ""
      (String.split_on_char '.'
         (String.concat "" (String.split_on_char '-' mantissa)))
  in
  let n = String.length digits in
  let first = ref 0 and last = ref (n - 1) in
  while !first < n && digits.[!first] = '0' do
    incr first
  done;
  while !last >= !first && digits.[!last] = '0' do
    decr last
  done;
  !last - !first + 1

(* The oracle: the fewest digits n in 1..17 for which C's correctly
   rounded "%.*e" reads back as [f].  Reading back is monotone in n
   (the nearest n-digit decimal is never closer than the nearest
   (n+1)-digit one), so a binary search finds it. *)
let printf_shortest_digits f =
  let reads_back n =
    same_bits (float_of_string (Printf.sprintf "%.*e" (n - 1) f)) f
  in
  let rec search lo hi =
    (* reads_back hi; not (reads_back (lo - 1)) *)
    if lo >= hi then hi
    else
      let mid = (lo + hi) / 2 in
      if reads_back mid then search lo mid else search (mid + 1) hi
  in
  search 1 17

let check_float_token f =
  let token = float_token f in
  (match Json.of_string token with
  | Ok (Json.Float g) when same_bits f g -> ()
  | Ok _ | Error _ ->
      QCheck2.Test.fail_reportf "%h -> %S does not read back" f token);
  if not (String.contains token '.' || String.contains token 'e') then
    QCheck2.Test.fail_reportf "%S would re-read as an Int" token;
  if Float.abs f > 0. && significant_digits token > printf_shortest_digits f
  then
    QCheck2.Test.fail_reportf "%S has %d digits; %d suffice" token
      (significant_digits token) (printf_shortest_digits f);
  if not (String.equal (Format.asprintf "%a" Json.pp (Json.Float f)) token)
  then QCheck2.Test.fail_reportf "Json.pp disagrees with %S" token;
  true

(* Raw 64-bit patterns, one in eight with a zero exponent (subnormals
   and zeros); an all-ones exponent (infinity, NaN) loses its top bit. *)
let finite_bits_gen =
  let open QCheck2.Gen in
  let exponent = 0x7ff0000000000000L in
  map2
    (fun raw subnormal ->
      let raw =
        if subnormal then Int64.logand raw (Int64.lognot exponent) else raw
      in
      if Int64.equal (Int64.logand raw exponent) exponent then
        Int64.logxor raw 0x4000000000000000L
      else raw)
    ui64
    (map (fun k -> k = 0) (int_bound 7))

let shortest_round_trip =
  QCheck2.Test.make ~name:"shortest round-trip floats" ~count:100_000
    ~print:(fun bits ->
      Printf.sprintf "%Ld (%h)" bits (Int64.float_of_bits bits))
    finite_bits_gen
    (fun bits -> check_float_token (Int64.float_of_bits bits))

let test_json_float_tokens () =
  List.iter
    (fun (f, expected) ->
      Alcotest.(check string) (Printf.sprintf "%h" f) expected (float_token f);
      ignore (check_float_token f : bool))
    [
      (0.0, "0.0");
      (-0.0, "-0.0");
      (5e-324, "5e-324");
      (Float.min_float, "2.2250738585072014e-308");
      (Float.max_float, "1.7976931348623157e308");
      (9007199254740992., "9007199254740992.0");
      (1e21, "1e21");
      (1e20, "100000000000000000000.0");
      (1e-7, "1e-7");
      (1e-6, "0.000001");
      (0.1, "0.1");
      (1.0, "1.0");
      (100.0, "100.0");
      (-2.5e-300, "-2.5e-300");
      (0.062992125984251968, "0.06299212598425197");
    ]

let test_json_rejects_malformed () =
  List.iter
    (fun text ->
      match Json.of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed JSON %S" text)
    [
      "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; ""; "{\"a\" 1}"; "\"unterminated";
      (* RFC 8259's number grammar *)
      "+1"; "01"; "00"; "-01"; "1."; ".5"; "-"; "1e"; "1e+"; "-.5"; "[1.]";
      "{\"a\":+1}"; "NaN"; "Infinity";
    ]

let test_json_member () =
  check_bool "member finds field" true
    (Json.member "count" sample_json = Some (Json.Int 3));
  check_bool "member misses absent" true (Json.member "absent" sample_json = None);
  check_bool "member on non-object" true (Json.member "x" (Json.Int 1) = None)

let test_telemetry_json_shape () =
  let cache = Cache.create () in
  let telemetry = Telemetry.create () in
  let model = two_class_model () in
  ignore
    (Sweep.run ~domains:1 ~cache ~telemetry
       [ Sweep.point ~label:"a" model; Sweep.point ~label:"b" model ]);
  let json = Telemetry.to_json ~cache ~domains:1 telemetry in
  (* The emitted document must re-parse and carry the schema fields the
     bench snapshot consumer checks for. *)
  (match Json.of_string (Json.to_string json) with
  | Ok reparsed -> check_bool "reparses" true (reparsed = json)
  | Error m -> Alcotest.failf "telemetry json malformed: %s" m);
  check_bool "solve count" true (Json.member "solves" json = Some (Json.Int 2));
  List.iter
    (fun field ->
      match Json.member field json with
      | Some (Json.Float v) ->
          check_bool (field ^ " non-negative") true (v >= 0.)
      | _ -> Alcotest.failf "%s missing from telemetry json" field)
    [ "wall_seconds_p50"; "wall_seconds_p95"; "wall_seconds_max" ];
  (* One miss solved the two-class model: R - 1 = 1 combine; the hit
     contributes zero, so the aggregate counter is exactly 1. *)
  check_bool "tree_combines aggregated" true
    (Json.member "tree_combines" json = Some (Json.Int 1));
  (match Json.member "cache" json with
  | Some cache_json ->
      check_bool "hits" true (Json.member "hits" cache_json = Some (Json.Int 1));
      check_bool "misses" true
        (Json.member "misses" cache_json = Some (Json.Int 1));
      check_bool "evictions" true
        (Json.member "evictions" cache_json = Some (Json.Int 0))
  | None -> Alcotest.fail "cache stats missing");
  match Json.member "records" json with
  | Some (Json.List [ first; second ]) ->
      check_bool "first label" true
        (Json.member "label" first = Some (Json.String "a"));
      check_bool "first records its combines" true
        (Json.member "tree_combines" first = Some (Json.Int 1));
      check_bool "second from cache" true
        (Json.member "from_cache" second = Some (Json.Bool true));
      check_bool "cache hit does no combines" true
        (Json.member "tree_combines" second = Some (Json.Int 0))
  | _ -> Alcotest.fail "records list missing"

let () =
  Alcotest.run "engine"
    [
      ( "pool",
        [
          case "index order" test_pool_orders_results;
          case "empty and single" test_pool_empty_and_single;
          case "more domains than tasks" test_pool_more_domains_than_tasks;
          case "exception propagation" test_pool_propagates_exception;
          case "first failure wins" test_pool_first_failure_wins;
          case "bad arguments" test_pool_rejects_bad_arguments;
          case "CROSSBAR_DOMAINS override" test_pool_env_override;
          case "nested run inline" test_pool_nested_run_inline;
          case "concurrent run inline" test_pool_concurrent_run_inline;
          case "raise after every band" test_pool_raise_after_every_band;
          case "batches reuse the workers" test_pool_batches_reuse_workers;
        ] );
      ( "cache",
        [
          case "structural hit" test_cache_structural_hit;
          case "perturbed rate misses" test_cache_perturbed_rate_misses;
          case "algorithm in key" test_cache_algorithm_in_key;
          qcheck cache_hammer_prop;
        ] );
      ( "memo capacity",
        [
          case "size bounded" test_memo_capacity_bounds_size;
          case "LRU eviction order" test_memo_evicts_least_recently_used;
          case "unbounded never evicts" test_memo_unbounded_never_evicts;
          case "clear resets statistics" test_memo_clear_resets_stats;
          case "find and set" test_memo_find_and_set;
          case "rejects bad capacity" test_memo_rejects_bad_capacity;
          case "on_evict fires on capacity displacement"
            test_memo_on_evict_fires_on_capacity;
          case "on_evict quiet on replace and clear"
            test_memo_on_evict_quiet_on_replace_and_clear;
          case "on_evict may re-enter the memo"
            test_memo_on_evict_may_reenter;
          case "bounded solver cache stays correct"
            test_bounded_solver_cache_still_correct;
        ] );
      ( "sweep",
        [
          case "warm cache identical" test_sweep_warm_cache_identical;
          case "single solve per model" test_sweep_single_solve_per_model;
          case "solve_full consistency" test_solve_full_matches_components;
        ] );
      ("determinism", [ qcheck sweep_determinism_prop ]);
      ( "telemetry",
        [
          case "records in point order" test_telemetry_records_in_point_order;
          case "wall-time percentiles" test_telemetry_wall_percentiles;
          case "negative wall time clamped" test_telemetry_clamps_negative_wall;
          case "snapshot consistent under load"
            test_telemetry_snapshot_consistent_under_load;
          case "json shape" test_telemetry_json_shape;
        ] );
      ( "clock",
        [
          case "monotonic" test_clock_monotonic;
          case "elapsed clamped" test_clock_elapsed_clamped;
        ] );
      ( "json",
        [
          case "roundtrip" test_json_roundtrip;
          case "float fidelity" test_json_float_fidelity;
          case "rejects malformed" test_json_rejects_malformed;
          case "member" test_json_member;
          case "float tokens" test_json_float_tokens;
          qcheck shortest_round_trip;
        ] );
    ]
