type t = { words : int array; n : int }

let words_for n = (n + 62) / 63

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { words = Array.make (words_for n) 0; n }

let capacity t = t.n

let check t i =
  if i < 0 || i >= t.n then invalid_arg "Bitset: index out of range"

let set t i =
  check t i;
  t.words.(i / 63) <- t.words.(i / 63) lor (1 lsl (i mod 63))

let unset t i =
  check t i;
  t.words.(i / 63) <- t.words.(i / 63) land lnot (1 lsl (i mod 63))

let mem t i =
  check t i;
  t.words.(i / 63) land (1 lsl (i mod 63)) <> 0

let popcount x =
  let rec loop x acc = if x = 0 then acc else loop (x land (x - 1)) (acc + 1) in
  loop x 0

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words
let clear t = Array.fill t.words 0 (Array.length t.words) 0
let copy t = { words = Array.copy t.words; n = t.n }

let union_into ~dst src =
  if dst.n <> src.n then invalid_arg "Bitset.union_into: capacity mismatch";
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) lor src.words.(i)
  done

let inter_into ~dst src =
  if dst.n <> src.n then invalid_arg "Bitset.inter_into: capacity mismatch";
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) land src.words.(i)
  done

let equal a b = a.n = b.n && a.words = b.words

let iter f t =
  for i = 0 to t.n - 1 do
    if t.words.(i / 63) land (1 lsl (i mod 63)) <> 0 then f i
  done

let to_list t =
  let acc = ref [] in
  iter (fun i -> acc := i :: !acc) t;
  List.rev !acc

let of_list n items =
  let t = create n in
  List.iter (set t) items;
  t

let bytes_for n = (n + 7) / 8
let byte_size t = bytes_for t.n

let to_bytes t =
  let b = Bytes.make (byte_size t) '\000' in
  iter
    (fun i ->
      let c = Char.code (Bytes.get b (i / 8)) in
      Bytes.set b (i / 8) (Char.chr (c lor (1 lsl (i mod 8)))))
    t;
  b

let mem_bytes b ~pos i = Char.code (Bytes.get b (pos + (i / 8))) land (1 lsl (i mod 8)) <> 0

let of_bytes n b =
  let t = create n in
  for i = 0 to n - 1 do
    if mem_bytes b ~pos:0 i then set t i
  done;
  t
