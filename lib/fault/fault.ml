type schedule =
  | Never
  | Always
  | First of int
  | Hits of int list
  | Probability of float
  | Flapping of { up : int; down : int }

exception Injected of { point : string; hit : int }

type point = {
  schedule : schedule;
  seed : int;
  mutable rng : Psp_util.Rng.t;
  mutable hits : int;
  mutable fired : int;
}

let points : (string, point) Hashtbl.t = Hashtbl.create 8

(* cached so unarmed instrumentation sites pay one load, not a hash
   lookup *)
let armed = ref 0

let arm ?(seed = 0) name schedule =
  if not (Hashtbl.mem points name) then incr armed;
  Hashtbl.replace points name
    { schedule; seed; rng = Psp_util.Rng.create seed; hits = 0; fired = 0 }

let reset () =
  Hashtbl.reset points;
  armed := 0

let rewind () =
  Hashtbl.iter
    (fun _ p ->
      p.hits <- 0;
      p.fired <- 0;
      p.rng <- Psp_util.Rng.create p.seed)
    points

let active () = !armed > 0

let fires name =
  !armed > 0
  &&
  match Hashtbl.find_opt points name with
  | None -> false
  | Some p ->
      p.hits <- p.hits + 1;
      let fail =
        match p.schedule with
        | Never -> false
        | Always -> true
        | First n -> p.hits <= n
        | Hits l -> List.mem p.hits l
        | Probability q -> Psp_util.Rng.float p.rng 1.0 < q
        | Flapping { up; down } ->
            (* a replica that cycles healthy/unhealthy: [up] passing hits,
               then [down] failing ones, repeating — still a pure function
               of the hit ordinal *)
            (p.hits - 1) mod (up + down) >= up
      in
      if fail then begin
        p.fired <- p.fired + 1;
        (* failpoint names are operator-chosen configuration, and the
           schedule is a public function of the hit ordinal *)
        Psp_obs.Obs.incr (Psp_obs.Obs.counter ("fault.fired." ^ name))
      end;
      fail

let inject name =
  if fires name then
    raise (Injected { point = name; hit = (Hashtbl.find points name).hits })

let hits name =
  match Hashtbl.find_opt points name with Some p -> p.hits | None -> 0

let fired name =
  match Hashtbl.find_opt points name with Some p -> p.fired | None -> 0

let parse_schedule spec =
  let int_of s = match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | _ -> Error (Printf.sprintf "expected a non-negative integer, got %S" s)
  in
  match String.index_opt spec ':' with
  | None -> (
      match spec with
      | "never" -> Ok Never
      | "always" -> Ok Always
      | s -> Error (Printf.sprintf "unknown schedule %S" s))
  | Some i -> (
      let kind = String.sub spec 0 i in
      let arg = String.sub spec (i + 1) (String.length spec - i - 1) in
      match kind with
      | "first" -> Result.map (fun n -> First n) (int_of arg)
      | "hits" ->
          let rec collect acc = function
            | [] -> Ok (Hits (List.rev acc))
            | s :: rest -> (
                match int_of s with
                | Ok n when n >= 1 -> collect (n :: acc) rest
                | Ok _ -> Error "hit ordinals are 1-based"
                | Error e -> Error e)
          in
          collect [] (String.split_on_char ',' arg)
      | "p" -> (
          match float_of_string_opt arg with
          | Some p when p >= 0.0 && p <= 1.0 -> Ok (Probability p)
          | _ -> Error (Printf.sprintf "expected a probability in [0,1], got %S" arg))
      | "flap" -> (
          match String.split_on_char ',' arg with
          | [ up; down ] -> (
              match (int_of up, int_of down) with
              | Ok u, Ok d when u >= 1 && d >= 1 -> Ok (Flapping { up = u; down = d })
              | Ok _, Ok _ -> Error "flap phases must be >= 1"
              | (Error e, _ | _, Error e) -> Error e)
          | _ -> Error (Printf.sprintf "expected flap:UP,DOWN, got %S" arg))
      | k -> Error (Printf.sprintf "unknown schedule %S" k))

let parse_spec spec =
  match String.index_opt spec '=' with
  | None -> Error (Printf.sprintf "fault spec %S lacks '=' (point=schedule)" spec)
  | Some i ->
      let name = String.sub spec 0 i in
      let sched = String.sub spec (i + 1) (String.length spec - i - 1) in
      if name = "" then Error "empty failpoint name"
      else Result.map (fun s -> (name, s)) (parse_schedule sched)
