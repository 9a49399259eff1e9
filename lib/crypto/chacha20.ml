(* A 32-bit word w lives in an int64 as w lsl 32: its bits fill the top
   half, the low 32 are zero.  An addition then wraps mod 2^32 by itself
   (the carry falls off the top), XOR keeps the low half zero, and a
   rotation needs a single mask to clear the bits it shifts below bit
   32.  The kernel keeps the 16 state words of a block in local int64
   refs, which the native compiler holds unboxed and untagged (in
   registers or stack slots, no tag fix-up per operation), and XORs the
   keystream straight into the output, so a call allocates nothing
   beyond what it returns. *)

let check_sizes key nonce =
  if Bytes.length key <> 32 then invalid_arg "Chacha20: key must be 32 bytes";
  if Bytes.length nonce <> 12 then invalid_arg "Chacha20: nonce must be 12 bytes"

(* little-endian 32-bit word at [off], shifted up *)
let word b off = Int64.shift_left (Int64.of_int32 (Bytes.get_int32_le b off)) 32

let high = 0xFFFF_FFFF_0000_0000L

let rotl x n =
  Int64.logor (Int64.shift_left x n) (Int64.logand (Int64.shift_right_logical x (32 - n)) high)

(* XOR the up-to-8 keystream bytes of the little-endian word pair
   [lo], [hi] into [dst] at [pos], reading [src] there; [avail] is the
   number of message bytes left from [pos] on (possibly <= 0). *)
let xor_tail ~src ~dst pos avail lo hi =
  for i = 0 to min avail 8 - 1 do
    let ks = if i < 4 then lo lsr (8 * i) else hi lsr (8 * (i - 4)) in
    Bytes.set_uint8 dst (pos + i) (Bytes.get_uint8 src (pos + i) lxor (ks land 0xFF))
  done
  [@@leak_ok
    "trip count is the public message length left at this position; the \
     keystream bytes never steer control flow"]

let xor_pair ~src ~dst pos avail lo hi =
  if avail >= 8 then
    Bytes.set_int64_le dst pos
      (Int64.logxor (Bytes.get_int64_le src pos)
         (Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32)))
  else xor_tail ~src ~dst pos avail lo hi
  [@@leak_ok "branches on the public message length left at this position only"]

(* dst.[i] <- src.[i] xor keystream.[i] over the first [Bytes.length dst]
   bytes, block counter starting at [counter]; [src] may be [dst].  The
   keystream words are shifted back down to ints only when XORed out. *)
let xor_keystream ~key ~nonce ~counter ~src ~dst =
  check_sizes key nonce;
  let k0 = word key 0 and k1 = word key 4 and k2 = word key 8 and k3 = word key 12 in
  let k4 = word key 16 and k5 = word key 20 and k6 = word key 24 and k7 = word key 28 in
  let n0 = word nonce 0 and n1 = word nonce 4 and n2 = word nonce 8 in
  (* "expand 32-byte k", shifted up *)
  let s0 = 0x61707865_00000000L and s1 = 0x3320646e_00000000L in
  let s2 = 0x79622d32_00000000L and s3 = 0x6b206574_00000000L in
  let n = Bytes.length dst in
  let off = ref 0 and ctr = ref counter in
  while !off < n do
    let c = Int64.shift_left (Int64.of_int !ctr) 32 in
    let x0 = ref s0 and x1 = ref s1 and x2 = ref s2 and x3 = ref s3 in
    let x4 = ref k0 and x5 = ref k1 and x6 = ref k2 and x7 = ref k3 in
    let x8 = ref k4 and x9 = ref k5 and x10 = ref k6 and x11 = ref k7 in
    let x12 = ref c and x13 = ref n0 and x14 = ref n1 and x15 = ref n2 in
    for _ = 1 to 10 do
      (* column rounds: QR(0,4,8,12) QR(1,5,9,13) QR(2,6,10,14) QR(3,7,11,15) *)
      x0 := Int64.add !x0 !x4; x12 := rotl (Int64.logxor !x12 !x0) 16;
      x8 := Int64.add !x8 !x12; x4 := rotl (Int64.logxor !x4 !x8) 12;
      x0 := Int64.add !x0 !x4; x12 := rotl (Int64.logxor !x12 !x0) 8;
      x8 := Int64.add !x8 !x12; x4 := rotl (Int64.logxor !x4 !x8) 7;
      x1 := Int64.add !x1 !x5; x13 := rotl (Int64.logxor !x13 !x1) 16;
      x9 := Int64.add !x9 !x13; x5 := rotl (Int64.logxor !x5 !x9) 12;
      x1 := Int64.add !x1 !x5; x13 := rotl (Int64.logxor !x13 !x1) 8;
      x9 := Int64.add !x9 !x13; x5 := rotl (Int64.logxor !x5 !x9) 7;
      x2 := Int64.add !x2 !x6; x14 := rotl (Int64.logxor !x14 !x2) 16;
      x10 := Int64.add !x10 !x14; x6 := rotl (Int64.logxor !x6 !x10) 12;
      x2 := Int64.add !x2 !x6; x14 := rotl (Int64.logxor !x14 !x2) 8;
      x10 := Int64.add !x10 !x14; x6 := rotl (Int64.logxor !x6 !x10) 7;
      x3 := Int64.add !x3 !x7; x15 := rotl (Int64.logxor !x15 !x3) 16;
      x11 := Int64.add !x11 !x15; x7 := rotl (Int64.logxor !x7 !x11) 12;
      x3 := Int64.add !x3 !x7; x15 := rotl (Int64.logxor !x15 !x3) 8;
      x11 := Int64.add !x11 !x15; x7 := rotl (Int64.logxor !x7 !x11) 7;
      (* diagonal rounds: QR(0,5,10,15) QR(1,6,11,12) QR(2,7,8,13) QR(3,4,9,14) *)
      x0 := Int64.add !x0 !x5; x15 := rotl (Int64.logxor !x15 !x0) 16;
      x10 := Int64.add !x10 !x15; x5 := rotl (Int64.logxor !x5 !x10) 12;
      x0 := Int64.add !x0 !x5; x15 := rotl (Int64.logxor !x15 !x0) 8;
      x10 := Int64.add !x10 !x15; x5 := rotl (Int64.logxor !x5 !x10) 7;
      x1 := Int64.add !x1 !x6; x12 := rotl (Int64.logxor !x12 !x1) 16;
      x11 := Int64.add !x11 !x12; x6 := rotl (Int64.logxor !x6 !x11) 12;
      x1 := Int64.add !x1 !x6; x12 := rotl (Int64.logxor !x12 !x1) 8;
      x11 := Int64.add !x11 !x12; x6 := rotl (Int64.logxor !x6 !x11) 7;
      x2 := Int64.add !x2 !x7; x13 := rotl (Int64.logxor !x13 !x2) 16;
      x8 := Int64.add !x8 !x13; x7 := rotl (Int64.logxor !x7 !x8) 12;
      x2 := Int64.add !x2 !x7; x13 := rotl (Int64.logxor !x13 !x2) 8;
      x8 := Int64.add !x8 !x13; x7 := rotl (Int64.logxor !x7 !x8) 7;
      x3 := Int64.add !x3 !x4; x14 := rotl (Int64.logxor !x14 !x3) 16;
      x9 := Int64.add !x9 !x14; x4 := rotl (Int64.logxor !x4 !x9) 12;
      x3 := Int64.add !x3 !x4; x14 := rotl (Int64.logxor !x14 !x3) 8;
      x9 := Int64.add !x9 !x14; x4 := rotl (Int64.logxor !x4 !x9) 7
    done;
    (* keystream word i = working word i + initial word i, XORed in
       little-endian pairs: 8 message bytes per step *)
    let o = !off in
    let left = n - o in
    let add a b = Int64.to_int (Int64.shift_right_logical (Int64.add a b) 32) in
    xor_pair ~src ~dst o left (add !x0 s0) (add !x1 s1);
    xor_pair ~src ~dst (o + 8) (left - 8) (add !x2 s2) (add !x3 s3);
    xor_pair ~src ~dst (o + 16) (left - 16) (add !x4 k0) (add !x5 k1);
    xor_pair ~src ~dst (o + 24) (left - 24) (add !x6 k2) (add !x7 k3);
    xor_pair ~src ~dst (o + 32) (left - 32) (add !x8 k4) (add !x9 k5);
    xor_pair ~src ~dst (o + 40) (left - 40) (add !x10 k6) (add !x11 k7);
    xor_pair ~src ~dst (o + 48) (left - 48) (add !x12 c) (add !x13 n0);
    xor_pair ~src ~dst (o + 56) (left - 56) (add !x14 n1) (add !x15 n2);
    off := o + 64;
    incr ctr
  done
  [@@leak_ok
    "the block loop and the tail split depend only on the public message \
     length; key, nonce and data words only feed the arithmetic"]

let block ~key ~nonce ~counter =
  let out = Bytes.make 64 '\000' in
  xor_keystream ~key ~nonce ~counter ~src:out ~dst:out;
  out

let encrypt_into ~key ~nonce ?(counter = 0) ~src dst =
  if Bytes.length src <> Bytes.length dst then
    invalid_arg "Chacha20.encrypt_into: src and dst lengths differ";
  xor_keystream ~key ~nonce ~counter ~src ~dst

let encrypt ~key ~nonce ?(counter = 0) data =
  let out = Bytes.create (Bytes.length data) in
  xor_keystream ~key ~nonce ~counter ~src:data ~dst:out;
  out

let decrypt = encrypt

let keystream_into ~key ~nonce dst =
  Bytes.fill dst 0 (Bytes.length dst) '\000';
  xor_keystream ~key ~nonce ~counter:0 ~src:dst ~dst

let keystream ~key ~nonce n =
  let out = Bytes.create n in
  keystream_into ~key ~nonce out;
  out
