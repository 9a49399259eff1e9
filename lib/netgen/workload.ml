module G = Psp_graph.Graph

type distribution =
  | Uniform
  | Local of { radius : float }
  | Commute of { hubs : int }
  | Repeated of { distinct : int }

let describe = function
  | Uniform -> "uniform"
  | Local { radius } -> Printf.sprintf "local(r=%.0f)" radius
  | Commute { hubs } -> Printf.sprintf "commute(%d hubs)" hubs
  | Repeated { distinct } -> Printf.sprintf "repeated(%d)" distinct

type arrival_process =
  | Steady of { rate : float }
  | Poisson of { rate : float }
  | Bursts of { period : float; mean_size : int }

let arrival_of_string s =
  let num v = try Some (float_of_string v) with Failure _ -> None in
  match String.split_on_char ':' s with
  | [ "steady"; r ] -> (
      match num r with
      | Some rate when rate > 0.0 -> Ok (Steady { rate })
      | _ -> Error "steady:<rate> needs a positive rate")
  | [ "poisson"; r ] -> (
      match num r with
      | Some rate when rate > 0.0 -> Ok (Poisson { rate })
      | _ -> Error "poisson:<rate> needs a positive rate")
  | [ "bursts"; spec ] -> (
      match String.split_on_char 'x' spec with
      | [ p; m ] -> (
          match (num p, int_of_string_opt m) with
          | Some period, Some mean_size when period > 0.0 && mean_size >= 1 ->
              Ok (Bursts { period; mean_size })
          | _ -> Error "bursts:<period>x<mean-size> needs period > 0 and size >= 1")
      | _ -> Error "bursts:<period>x<mean-size>")
  | _ -> Error (Printf.sprintf "unknown arrival process %S" s)

let arrivals process ~count ~seed =
  if count < 0 then invalid_arg "Workload.arrivals: count must be >= 0";
  let rng = Psp_util.Rng.create seed in
  match process with
  | Steady { rate } ->
      if rate <= 0.0 then invalid_arg "Workload.arrivals: rate must be positive";
      Array.init count (fun i -> float_of_int i /. rate)
  | Poisson { rate } ->
      if rate <= 0.0 then invalid_arg "Workload.arrivals: rate must be positive";
      let t = ref 0.0 in
      Array.init count (fun _ ->
          (* inverse-CDF exponential gap; 1 - u avoids log 0 *)
          let u = Psp_util.Rng.float rng 1.0 in
          t := !t +. (-.log (1.0 -. u) /. rate);
          !t)
  | Bursts { period; mean_size } ->
      if period <= 0.0 then invalid_arg "Workload.arrivals: period must be positive";
      if mean_size < 1 then invalid_arg "Workload.arrivals: mean_size must be >= 1";
      let out = Array.make count 0.0 in
      let filled = ref 0 and burst = ref 0 in
      while !filled < count do
        (* burst sizes vary uniformly in [1, 2·mean - 1] (mean preserved),
           so no single fixed batch width matches every burst *)
        let size = 1 + Psp_util.Rng.int rng ((2 * mean_size) - 1) in
        let start = float_of_int !burst *. period in
        for _ = 1 to min size (count - !filled) do
          out.(!filled) <- start;
          incr filled
        done;
        incr burst
      done;
      out

let generate g distribution ~count ~seed =
  let rng = Psp_util.Rng.create seed in
  let n = G.node_count g in
  if n < 2 then invalid_arg "Workload.generate: need at least two nodes";
  let uniform_other s =
    let rec draw () =
      let t = Psp_util.Rng.int rng n in
      if t = s then draw () else t
    in
    draw ()
  in
  (* rejection-sample a node within radius; give up to uniform after a
     bounded number of attempts (isolated corners of sparse maps) *)
  let near ~of_ ~radius =
    let rec attempt k =
      if k = 0 then uniform_other of_
      else begin
        let v = Psp_util.Rng.int rng n in
        if v <> of_ && G.euclidean g of_ v <= radius then v else attempt (k - 1)
      end
    in
    attempt 64
  in
  match distribution with
  | Uniform ->
      Array.init count (fun _ ->
          let s = Psp_util.Rng.int rng n in
          (s, uniform_other s))
  | Local { radius } ->
      if radius <= 0.0 then invalid_arg "Workload.generate: radius must be positive";
      Array.init count (fun _ ->
          let s = Psp_util.Rng.int rng n in
          (s, near ~of_:s ~radius))
  | Commute { hubs } ->
      if hubs < 1 then invalid_arg "Workload.generate: hubs must be >= 1";
      let hub_nodes = Array.init hubs (fun _ -> Psp_util.Rng.int rng n) in
      let x0, y0, x1, y1 = G.bounding_box g in
      let radius = 0.08 *. Float.max (x1 -. x0) (y1 -. y0) in
      Array.init count (fun _ ->
          let s = Psp_util.Rng.int rng n in
          let hub = Psp_util.Rng.pick rng hub_nodes in
          let t = near ~of_:hub ~radius in
          if t = s then (s, uniform_other s) else (s, t))
  | Repeated { distinct } ->
      if distinct < 1 then invalid_arg "Workload.generate: distinct must be >= 1";
      let base =
        Array.init distinct (fun _ ->
            let s = Psp_util.Rng.int rng n in
            (s, uniform_other s))
      in
      Array.init count (fun i -> base.(i mod distinct))
