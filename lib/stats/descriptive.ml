let check_nonempty name xs = if Array.length xs = 0 then invalid_arg name

let mean xs =
  check_nonempty "Descriptive.mean" xs;
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let stddev xs =
  check_nonempty "Descriptive.stddev" xs;
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    sqrt (ss /. float_of_int (n - 1))
  end

let minimum xs =
  check_nonempty "Descriptive.minimum" xs;
  Array.fold_left min xs.(0) xs

let maximum xs =
  check_nonempty "Descriptive.maximum" xs;
  Array.fold_left max xs.(0) xs

let percentile xs p =
  check_nonempty "Descriptive.percentile" xs;
  if p < 0.0 || p > 100.0 then invalid_arg "Descriptive.percentile: p outside [0,100]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let median xs = percentile xs 50.0

let tukey_filter xs =
  check_nonempty "Descriptive.tukey_filter" xs;
  let q25 = percentile xs 25.0 and q75 = percentile xs 75.0 in
  let spread = 1.5 *. (q75 -. q25) in
  let lo = q25 -. spread and hi = q75 +. spread in
  let kept = Array.of_list (List.filter (fun x -> x >= lo && x <= hi) (Array.to_list xs)) in
  if Array.length kept = 0 then xs else kept

let harmonic_mean xs =
  check_nonempty "Descriptive.harmonic_mean" xs;
  let sum_inv =
    Array.fold_left
      (fun acc x ->
        if x <= 0.0 then invalid_arg "Descriptive.harmonic_mean: nonpositive value";
        acc +. (1.0 /. x))
      0.0 xs
  in
  float_of_int (Array.length xs) /. sum_inv

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p99 : float;
}

let summarize ?(tukey = true) xs =
  check_nonempty "Descriptive.summarize" xs;
  let xs = if tukey then tukey_filter xs else xs in
  {
    n = Array.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min = minimum xs;
    max = maximum xs;
    p50 = median xs;
    p99 = percentile xs 99.0;
  }
