let total xs = Array.fold_left ( +. ) 0.0 xs

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else total xs /. float_of_int n

let stddev xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    sqrt (acc /. float_of_int n)
  end

let min_max xs =
  if Array.length xs = 0 then invalid_arg "Stats.min_max: empty";
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0))
    xs

let percentile xs p =
  if Array.length xs = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let histogram ~buckets ~lo ~hi xs =
  if buckets <= 0 then invalid_arg "Stats.histogram: buckets must be positive";
  let counts = Array.make buckets 0 in
  let width = (hi -. lo) /. float_of_int buckets in
  Array.iter
    (fun x ->
      let i =
        if width <= 0.0 then 0
        else max 0 (min (buckets - 1) (int_of_float ((x -. lo) /. width)))
      in
      counts.(i) <- counts.(i) + 1)
    xs;
  counts
