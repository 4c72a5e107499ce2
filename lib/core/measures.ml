type per_class = {
  name : string;
  bandwidth : int;
  offered_load : float;
  non_blocking : float;
  blocking : float;
  concurrency : float;
  throughput : float;
}

type t = {
  per_class : per_class array;
  busy_ports : float;
  input_utilization : float;
  output_utilization : float;
}

let class_named t name =
  match Array.find_opt (fun c -> String.equal c.name name) t.per_class with
  | Some c -> c
  | None -> raise Not_found

let total_throughput t =
  Array.fold_left (fun acc c -> acc +. c.throughput) 0. t.per_class

let revenue t ~weights =
  if Array.length weights <> Array.length t.per_class then
    invalid_arg "Measures.revenue: weight count mismatch";
  let total = ref 0. in
  Array.iteri
    (fun r c -> total := !total +. (weights.(r) *. c.concurrency))
    t.per_class;
  !total

let of_concurrencies ~model ~non_blocking ~concurrency =
  let classes = Model.classes model in
  if
    Array.length non_blocking <> Array.length classes
    || Array.length concurrency <> Array.length classes
  then invalid_arg "Measures.of_concurrencies: array length mismatch";
  let per_class =
    Array.mapi
      (fun r (c : Traffic.t) ->
        {
          name = c.Traffic.name;
          bandwidth = c.Traffic.bandwidth;
          offered_load = Traffic.offered_load c;
          non_blocking = non_blocking.(r);
          blocking = 1. -. non_blocking.(r);
          concurrency = concurrency.(r);
          throughput = concurrency.(r) *. c.Traffic.service_rate;
        })
      classes
  in
  let busy_ports =
    Array.fold_left
      (fun acc c -> acc +. (float_of_int c.bandwidth *. c.concurrency))
      0. per_class
  in
  {
    per_class;
    busy_ports;
    input_utilization = busy_ports /. float_of_int (Model.inputs model);
    output_utilization = busy_ports /. float_of_int (Model.outputs model);
  }

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iter
    (fun c ->
      Format.fprintf ppf
        "%-12s a=%d rho~=%-10.6g blocking=%-12.6g E=%-12.6g X=%-12.6g@," c.name
        c.bandwidth c.offered_load c.blocking c.concurrency c.throughput)
    t.per_class;
  Format.fprintf ppf
    "busy ports %.6g (input util %.4g%%, output util %.4g%%)@]" t.busy_ports
    (100. *. t.input_utilization)
    (100. *. t.output_utilization)

type distribution = {
  class_index : int;
  name : string;
  bandwidth : int;
  probabilities : float array;
  mean : float;
}

let distribution_of_weights ~model ~class_index ~weights =
  let classes = Model.classes model in
  if class_index < 0 || class_index >= Array.length classes then
    invalid_arg "Measures.distribution_of_weights: class index out of range";
  if Array.length weights = 0 then
    invalid_arg "Measures.distribution_of_weights: empty weight vector";
  Array.iter
    (fun w ->
      if not (Float.is_finite w) || w < 0. then
        invalid_arg
          "Measures.distribution_of_weights: weights must be finite and \
           non-negative")
    weights;
  let total = Array.fold_left ( +. ) 0. weights in
  if not (total > 0.) then
    failwith
      "Measures.distribution_of_weights: the marginal's weights sum to zero";
  let probabilities = Array.map (fun w -> w /. total) weights in
  let mean = ref 0. in
  Array.iteri
    (fun m p -> mean := !mean +. (float_of_int m *. p))
    probabilities;
  let c = classes.(class_index) in
  {
    class_index;
    name = c.Traffic.name;
    bandwidth = c.Traffic.bandwidth;
    probabilities;
    mean = !mean;
  }
