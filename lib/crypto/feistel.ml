(* Round i's function F_i(r) = PRF_i(r) land half_mask has only
   2^half_bits inputs, so [create] tabulates all four once, one
   [Prf.fill] per round: F_i(r) is tables.(i * 2^half_bits + r)
   (Black-Rogaway, CT-RSA 2002).  The four round keys are derived from
   the permutation key's HMAC pad states, prepared once. *)
type t = {
  domain : int;
  half_bits : int; (* bits per Feistel half; total width = 2*half_bits *)
  tables : int array; (* rounds * 2^half_bits round-function values *)
}

let rounds = 4
let round_labels = Array.init rounds (Printf.sprintf "feistel-round-%d")

let create ~key ~domain =
  if domain <= 0 then invalid_arg "Feistel.create: domain must be positive";
  (* Smallest even bit-width covering the domain. *)
  let rec bits_for n acc = if n <= 1 then acc else bits_for ((n + 1) / 2) (acc + 1) in
  let width = max 2 (bits_for domain 0) in
  let width = if width mod 2 = 0 then width else width + 1 in
  let half_bits = width / 2 in
  let size = 1 lsl half_bits in
  let tables = Array.make (rounds * size) 0 in
  let key = Hmac.keyed key in
  for i = 0 to rounds - 1 do
    Prf.fill (Prf.create ~key ~label:round_labels.(i)) tables ~off:(i * size) ~len:size
      ~mask:(size - 1)
  done;
  { domain; half_bits; tables }

let domain t = t.domain
let table_words t = Array.length t.tables

(* One pass of the full network.  Forward round i maps (l, r) to
   (r, l xor F_i(r)); backward inverts rounds in reverse order. *)
let once_fwd t x =
  let h = t.half_bits and tb = t.tables in
  let size = 1 lsl h in
  let l = (x lsr h) land (size - 1) and r = x land (size - 1) in
  let l = l lxor tb.(r) in
  let r = r lxor tb.(size + l) in
  let l = l lxor tb.((2 * size) + r) in
  let r = r lxor tb.((3 * size) + l) in
  (l lsl h) lor r

let once_bwd t x =
  let h = t.half_bits and tb = t.tables in
  let size = 1 lsl h in
  let l = (x lsr h) land (size - 1) and r = x land (size - 1) in
  let r = r lxor tb.((3 * size) + l) in
  let l = l lxor tb.((2 * size) + r) in
  let r = r lxor tb.(size + l) in
  let l = l lxor tb.(r) in
  (l lsl h) lor r

(* Cycle-walk: iterate the width-wide permutation until we land back
   inside the domain; this restriction is itself a permutation. *)
let walk t step x =
  if x < 0 || x >= t.domain then invalid_arg "Feistel: point out of domain";
  let y = ref (step t x) in
  while !y >= t.domain do
    y := step t !y
  done;
  !y

let forward t x = walk t once_fwd x
let backward t x = walk t once_bwd x
let to_array t = Array.init t.domain (forward t)
