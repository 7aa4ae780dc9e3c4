(* Sample statistics used by every workload.

   Percentiles use the nearest-rank rule: the q-th percentile of n
   samples is the ceil(q/100 * n)-th smallest.  A tail percentile is only
   reported when at least ten samples lie beyond it, so p90 needs 100
   samples and p99 needs 1000. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let rank n q = max 1 (min n (int_of_float (Float.ceil (q /. 100. *. float_of_int n))))

let samples_beyond n q = n - rank n q

(* Minimum sample count for which [q] has ten samples beyond it. *)
let min_samples_for q =
  let rec go n = if samples_beyond n q >= 10 then n else go (n + 1) in
  go 1

let percentile q xs =
  match xs with
  | [] -> invalid_arg "Stats.percentile: no samples"
  | _ ->
    let a = sorted xs in
    a.(rank (Array.length a) q - 1)

let median xs = percentile 50. xs

(* A tail percentile, refused when it has fewer than ten samples beyond
   it: such a figure would be an anecdote, not a percentile. *)
let tail q xs =
  let n = List.length xs in
  if samples_beyond n q < 10 then
    Error
      (Printf.sprintf "p%g over %d samples has %d beyond it (need 10)" q n
         (samples_beyond n q))
  else Ok (percentile q xs)

let geomean = function
  | [] -> invalid_arg "Stats.geomean: no values"
  | xs ->
    if List.exists (fun x -> x <= 0.) xs then
      invalid_arg "Stats.geomean: non-positive value";
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0. xs
      /. float_of_int (List.length xs))

(* Split (hit, latency) observations into the hit and miss
   populations, preserving order. *)
let split_hits obs =
  List.fold_right
    (fun (hit, x) (hits, misses) ->
      if hit then (x :: hits, misses) else (hits, x :: misses))
    obs ([], [])
