(* Table-driven CRC-32 (reflected, polynomial 0xEDB88320), slice-by-8:
   eight 256-entry tables, where [tables.(k).(n)] is the CRC of byte [n]
   followed by [k] zero bytes, fold eight input bytes per step; the
   byte-at-a-time loop handles the tail. *)

let tables =
  lazy
    (let t0 =
       Array.init 256 (fun n ->
           let c = ref n in
           for _ = 0 to 7 do
             c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
           done;
           !c)
     in
     let ts = Array.make 8 t0 in
     for k = 1 to 7 do
       ts.(k) <- Array.map (fun c -> t0.(c land 0xFF) lxor (c lsr 8)) ts.(k - 1)
     done;
     ts)

let u32 buf i = Int32.to_int (Bytes.get_int32_le buf i) land 0xFFFFFFFF

let update crc buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Crc32.update: slice out of range";
  let ts = Lazy.force tables in
  let t0 = ts.(0) and t1 = ts.(1) and t2 = ts.(2) and t3 = ts.(3) in
  let t4 = ts.(4) and t5 = ts.(5) and t6 = ts.(6) and t7 = ts.(7) in
  let c = ref (crc lxor 0xFFFFFFFF) in
  let words = len / 8 in
  for w = 0 to words - 1 do
    let i = pos + (8 * w) in
    let lo = !c lxor u32 buf i and hi = u32 buf (i + 4) in
    c :=
      Array.unsafe_get t7 (lo land 0xFF)
      lxor Array.unsafe_get t6 ((lo lsr 8) land 0xFF)
      lxor Array.unsafe_get t5 ((lo lsr 16) land 0xFF)
      lxor Array.unsafe_get t4 (lo lsr 24)
      lxor Array.unsafe_get t3 (hi land 0xFF)
      lxor Array.unsafe_get t2 ((hi lsr 8) land 0xFF)
      lxor Array.unsafe_get t1 ((hi lsr 16) land 0xFF)
      lxor Array.unsafe_get t0 (hi lsr 24)
  done;
  for i = pos + (8 * words) to pos + len - 1 do
    c := t0.((!c lxor Char.code (Bytes.unsafe_get buf i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let sub buf ~pos ~len = update 0 buf ~pos ~len
let digest buf = update 0 buf ~pos:0 ~len:(Bytes.length buf)
let string s = digest (Bytes.unsafe_of_string s)
