type algorithm = Brute_force | Convolution | Mean_value

let algorithm_of_string s =
  match String.lowercase_ascii s with
  | "brute" | "brute-force" | "enumeration" -> Ok Brute_force
  | "convolution" | "algorithm1" | "alg1" -> Ok Convolution
  | "mva" | "mean-value" | "algorithm2" | "alg2" -> Ok Mean_value
  | _ -> Error (Printf.sprintf "unknown algorithm %S" s)

let algorithm_to_string = function
  | Brute_force -> "brute-force"
  | Convolution -> "convolution"
  | Mean_value -> "mean-value"

let recommended (_ : Model.t) = Convolution

type solution = {
  algorithm : algorithm;
  measures : Measures.t;
  log_normalization : float;
  lattice_cells : int;
  rescales : int;
  tree_combines : int;
  banded_combines : int;
}

let solution_of_convolution solved =
  let model = Convolution.model solved in
  {
    algorithm = Convolution;
    measures = Convolution.measures solved;
    log_normalization = Convolution.log_normalization solved;
    lattice_cells = (Model.inputs model + 1) * (Model.outputs model + 1);
    rescales = Convolution.rescale_count solved;
    tree_combines = Convolution.combine_count solved;
    banded_combines = Convolution.banded_combine_count solved;
  }

let solve_full ?algorithm model =
  let algorithm =
    match algorithm with Some a -> a | None -> recommended model
  in
  let inputs = Model.inputs model and outputs = Model.outputs model in
  let lattice_cells = (inputs + 1) * (outputs + 1) in
  match algorithm with
  | Brute_force ->
      {
        algorithm;
        measures = Brute.solve model;
        log_normalization = Brute.log_g model ~inputs ~outputs;
        lattice_cells = 0;
        rescales = 0;
        tree_combines = 0;
        banded_combines = 0;
      }
  | Convolution -> solution_of_convolution (Convolution.solve model)
  | Mean_value ->
      let solved = Mva.solve model in
      {
        algorithm;
        measures = Mva.measures solved;
        log_normalization = Mva.log_normalization solved;
        lattice_cells;
        rescales = 0;
        tree_combines = 0;
        banded_combines = 0;
      }

let solve ?algorithm model =
  let algorithm =
    match algorithm with Some a -> a | None -> recommended model
  in
  match algorithm with
  | Brute_force -> Brute.solve model
  | Convolution -> Convolution.measures (Convolution.solve model)
  | Mean_value -> Mva.measures (Mva.solve model)

let log_normalization ?algorithm model =
  let algorithm =
    match algorithm with Some a -> a | None -> recommended model
  in
  match algorithm with
  | Brute_force ->
      Brute.log_g model ~inputs:(Model.inputs model)
        ~outputs:(Model.outputs model)
  | Convolution -> Convolution.log_normalization (Convolution.solve model)
  | Mean_value -> Mva.log_normalization (Mva.solve model)
