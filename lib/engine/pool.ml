(* One CROSSBAR_DOMAINS reading serves the whole tree: the pool and the
   banded combine kernel inside Crossbar.Convolution resolve their width
   through the same module, so an override scales both fan-outs. *)
let recommended_domains () = Crossbar.Domains.recommended ()

let run ?domains ~tasks f =
  if tasks < 0 then
    invalid_arg (Printf.sprintf "Pool.run: tasks=%d is negative" tasks);
  let domains =
    match domains with
    | None -> recommended_domains ()
    | Some d when d < 1 ->
        invalid_arg (Printf.sprintf "Pool.run: domains=%d < 1" d)
    | Some d -> d
  in
  let workers = min domains tasks in
  if workers <= 1 then Array.init tasks f
  else begin
    let results = Array.make tasks None in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let band (_ : int) =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < tasks && Atomic.get failure = None then begin
          (match f i with
          | value -> results.(i) <- Some value
          | exception e ->
              ignore (Atomic.compare_and_set failure None (Some e)));
          loop ()
        end
      in
      loop ()
    in
    (* One band per worker on the process's persistent band domains: the
       calling domain runs band 0, parked workers run the rest, and the
       call returns once every band has finished.  Each [results] slot
       is written by exactly one band — the Atomic counter hands out
       disjoint indices — and only read after that.  A nested or
       concurrent call finds the band pool busy and runs its bands
       inline; the first band then drains every task. *)
    (* lint: guarded=results — disjoint writes, read after every band *)
    Crossbar.Band_pool.run ~bands:workers band;
    (match Atomic.get failure with Some e -> raise e | None -> ());
    Array.map
      (function Some value -> value | None -> assert false)
      results
  end
