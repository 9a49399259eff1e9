type t = {
  cells : Psp_util.Bitset.t;
  prf : Prf.t;
  hashes : int;
  mutable inserted : int;
}

let create ~key ~label ~bits ~hashes =
  if bits <= 0 || hashes <= 0 then invalid_arg "Bloom.create: sizes must be positive";
  { cells = Psp_util.Bitset.create bits;
    prf = Prf.create ~key ~label:("bloom:" ^ label);
    hashes;
    inserted = 0 }

let sized_for ~key ~label ~expected ~fp_rate =
  if expected <= 0 then invalid_arg "Bloom.sized_for: expected must be positive";
  if fp_rate <= 0.0 || fp_rate >= 1.0 then invalid_arg "Bloom.sized_for: fp_rate in (0,1)";
  let ln2 = log 2.0 in
  let bits =
    int_of_float (ceil (-.float_of_int expected *. log fp_rate /. (ln2 *. ln2)))
  in
  let hashes = max 1 (int_of_float (Float.round (float_of_int bits /. float_of_int expected *. ln2))) in
  create ~key ~label ~bits:(max 8 bits) ~hashes

let positions t x =
  Prf.indices t.prf x ~count:t.hashes ~modulus:(Psp_util.Bitset.capacity t.cells)

(* add and mem walk the probe positions one at a time instead of
   building the list: no allocation per element *)
let position t x i = Prf.index t.prf x i ~modulus:(Psp_util.Bitset.capacity t.cells)

let add t x =
  for i = 0 to t.hashes - 1 do
    Psp_util.Bitset.set t.cells (position t x i)
  done;
  t.inserted <- t.inserted + 1

(* every probe is computed, hit or miss *)
let mem t x =
  let hit = ref true in
  for i = 0 to t.hashes - 1 do
    hit := Psp_util.Bitset.mem t.cells (position t x i) && !hit
  done;
  !hit
let count t = t.inserted
let bits t = Psp_util.Bitset.capacity t.cells

let fp_estimate t =
  let m = float_of_int (bits t) and n = float_of_int t.inserted in
  let k = float_of_int t.hashes in
  (1.0 -. exp (-.k *. n /. m)) ** k

let clear t =
  Psp_util.Bitset.clear t.cells;
  t.inserted <- 0
