(* Crypto substrate: known-answer vectors plus structural properties. *)

open Psp_crypto

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let hex_of = Sha256.hex

(* ------------------------------------------------------------------ *)
(* SHA-256: FIPS 180-4 known-answer tests *)

let test_sha256_empty () =
  Alcotest.(check string) "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (hex_of (Sha256.digest_string ""))

let test_sha256_abc () =
  Alcotest.(check string) "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (hex_of (Sha256.digest_string "abc"))

let test_sha256_448bits () =
  Alcotest.(check string) "two-block boundary"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (hex_of (Sha256.digest_string "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))

let test_sha256_million_a () =
  let ctx = Sha256.init () in
  for _ = 1 to 1000 do
    Sha256.feed_string ctx (String.make 1000 'a')
  done;
  Alcotest.(check string) "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (hex_of (Sha256.finalize ctx))

let test_sha256_streaming_equals_oneshot () =
  let data = String.init 1000 (fun i -> Char.chr (i mod 251)) in
  let ctx = Sha256.init () in
  (* feed in awkward chunk sizes crossing block boundaries *)
  let pos = ref 0 and step = ref 1 in
  while !pos < String.length data do
    let take = min !step (String.length data - !pos) in
    Sha256.feed_string ctx (String.sub data !pos take);
    pos := !pos + take;
    step := (!step * 2 mod 97) + 1
  done;
  Alcotest.(check string) "streaming == one-shot"
    (hex_of (Sha256.digest_string data))
    (hex_of (Sha256.finalize ctx))

(* ------------------------------------------------------------------ *)
(* HMAC-SHA-256: RFC 4231 vectors *)

let test_hmac_rfc4231_case1 () =
  let key = Bytes.make 20 '\x0b' in
  Alcotest.(check string) "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (hex_of (Hmac.mac_string ~key "Hi There"))

let test_hmac_rfc4231_case2 () =
  let key = Bytes.of_string "Jefe" in
  Alcotest.(check string) "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (hex_of (Hmac.mac_string ~key "what do ya want for nothing?"))

let test_hmac_rfc4231_case3 () =
  let key = Bytes.make 20 '\xaa' in
  let data = Bytes.make 50 '\xdd' in
  Alcotest.(check string) "case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (hex_of (Hmac.mac ~key data))

let test_hmac_rfc4231_long_key () =
  let key = Bytes.make 131 '\xaa' in
  Alcotest.(check string) "case 6 (key > block)"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (hex_of (Hmac.mac_string ~key "Test Using Larger Than Block-Size Key - Hash Key First"))

let test_hmac_verify () =
  let key = Bytes.of_string "secret" in
  let tag = Hmac.mac_string ~key "message" in
  Alcotest.(check bool) "accepts" true (Hmac.verify ~key (Bytes.of_string "message") ~tag);
  Alcotest.(check bool) "rejects" false (Hmac.verify ~key (Bytes.of_string "messagf") ~tag)

let test_hmac_derive_labels () =
  let key = Bytes.of_string "master" in
  let a = Hmac.derive ~key ~label:"a" and b = Hmac.derive ~key ~label:"b" in
  Alcotest.(check bool) "independent" true (a <> b);
  Alcotest.(check bool) "deterministic" true (a = Hmac.derive ~key ~label:"a")

(* one prepared key deriving several labels gives the bytes of a fresh
   derive per label *)
let hmac_derive_keyed =
  qtest ~count:200 "derive_keyed (keyed k) = derive ~key:k"
    QCheck2.Gen.(
      pair (string_size (int_range 0 150)) (list_size (int_range 1 5) (string_size (int_range 0 40))))
    (fun (k, labels) ->
      let key = Bytes.of_string k in
      let kk = Hmac.keyed key in
      List.for_all (fun label -> Hmac.derive_keyed kk ~label = Hmac.derive ~key ~label) labels)

(* The textbook construction, hashing the padded key for every message:
   the reference the precomputed pad states are compared against. *)
let reference_hmac key data =
  let key = if Bytes.length key > 64 then Sha256.digest key else key in
  let pad byte =
    Bytes.init 64 (fun i ->
        Char.chr ((if i < Bytes.length key then Char.code (Bytes.get key i) else 0) lxor byte))
  in
  let inner = Sha256.init () in
  Sha256.feed inner (pad 0x36);
  Sha256.feed inner data;
  let outer = Sha256.init () in
  Sha256.feed outer (pad 0x5C);
  Sha256.feed outer (Sha256.finalize inner);
  Sha256.finalize outer

let hmac_keyed_equals_mac =
  qtest ~count:200 "mac_keyed (keyed k) m = mac ~key:k m"
    QCheck2.Gen.(
      triple (string_size (int_range 0 150)) (string_size (int_range 0 300))
        (string_size (int_range 0 300)))
    (fun (k, m1, m2) ->
      let key = Bytes.of_string k and m1 = Bytes.of_string m1 and m2 = Bytes.of_string m2 in
      let kk = Hmac.keyed key in
      (* one prepared key, two messages: using it must not change it *)
      let t1 = Hmac.mac_keyed kk m1 and t2 = Hmac.mac_keyed kk m2 in
      t1 = Hmac.mac ~key m1 && t1 = reference_hmac key m1 && t2 = reference_hmac key m2)

(* the allocation-free entry points: one scratch reused across two keys
   and messages, each message fed in two parts split at a random point *)
let hmac_into_equals_reference =
  qtest ~count:200 "start/feed/finish_into = textbook HMAC"
    QCheck2.Gen.(
      quad (string_size (int_range 0 150)) (string_size (int_range 0 150))
        (string_size (int_range 0 300)) (int_range 0 300))
    (fun (k1, k2, m, cut) ->
      let k1 = Bytes.of_string k1 and k2 = Bytes.of_string k2 and m = Bytes.of_string m in
      let cut = min cut (Bytes.length m) in
      let s = Hmac.scratch () and dst = Bytes.create 40 in
      let streamed k =
        Hmac.start k s;
        Hmac.feed s (Bytes.sub m 0 cut);
        Hmac.feed s (Bytes.sub m cut (Bytes.length m - cut));
        Hmac.finish_into k s dst;
        Bytes.sub dst 0 32
      in
      let kk1 = Hmac.keyed k1 and kk2 = Hmac.keyed k2 in
      let a = streamed kk1 in
      Hmac.mac_keyed_into kk2 s m dst;
      let b = Bytes.sub dst 0 32 in
      a = reference_hmac k1 m && b = reference_hmac k2 m && streamed kk1 = a
      && Hmac.equal a (reference_hmac k1 m)
      && not (Hmac.equal a (Bytes.sub a 0 31)))

(* ------------------------------------------------------------------ *)
(* SHA-256 and HMAC: the C compression against the retired OCaml one *)

(* The pure-OCaml SHA-256 the library ran before its compression moved
   to C, kept verbatim as the reference the C core is compared against. *)
module Ref_sha256 = struct
  let mask = 0xFFFFFFFF

  let k =
    [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
       0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
       0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
       0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
       0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
       0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
       0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
       0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
       0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
       0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
       0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

  type ctx = {
    h : int array; (* 8 state words *)
    block : bytes; (* 64-byte input block being filled *)
    mutable fill : int;
    mutable total : int; (* total message bytes fed *)
    w : int array; (* 64-entry message schedule scratch *)
  }

  let init () =
    { h =
        [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
           0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
      block = Bytes.create 64;
      fill = 0;
      total = 0;
      w = Array.make 64 0 }

  (* For a 32-bit x, the low 32 bits of (x lor (x lsl 32)) lsr n are
     x rotated right by n (n <= 30: no bit falls off the 63-bit int), so
     one doubled word serves all three rotations of a Σ/σ function. *)
  let doubled x = x lor (x lsl 32)

  let compress ctx =
    let w = ctx.w in
    for i = 0 to 15 do
      w.(i) <- Int32.to_int (Bytes.get_int32_be ctx.block (4 * i)) land mask
    done;
    for i = 16 to 63 do
      let x = w.(i - 15) and y = w.(i - 2) in
      let xx = doubled x and yy = doubled y in
      let s0 = (((xx lsr 7) lxor (xx lsr 18)) land mask) lxor (x lsr 3) in
      let s1 = (((yy lsr 17) lxor (yy lsr 19)) land mask) lxor (y lsr 10) in
      w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask
    done;
    let a = ref ctx.h.(0) and b = ref ctx.h.(1) and c = ref ctx.h.(2) in
    let d = ref ctx.h.(3) and e = ref ctx.h.(4) and f = ref ctx.h.(5) in
    let g = ref ctx.h.(6) and hh = ref ctx.h.(7) in
    for i = 0 to 63 do
      let ee = doubled !e and aa = doubled !a in
      let s1 = ((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land mask in
      let ch = (!e land !f) lxor (lnot !e land !g) in
      let t1 = (!hh + s1 + ch + k.(i) + w.(i)) land mask in
      let s0 = ((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land mask in
      let maj = (!a land !b) lor (!c land (!a lor !b)) in
      let t2 = (s0 + maj) land mask in
      hh := !g;
      g := !f;
      f := !e;
      e := (!d + t1) land mask;
      d := !c;
      c := !b;
      b := !a;
      a := (t1 + t2) land mask
    done;
    ctx.h.(0) <- (ctx.h.(0) + !a) land mask;
    ctx.h.(1) <- (ctx.h.(1) + !b) land mask;
    ctx.h.(2) <- (ctx.h.(2) + !c) land mask;
    ctx.h.(3) <- (ctx.h.(3) + !d) land mask;
    ctx.h.(4) <- (ctx.h.(4) + !e) land mask;
    ctx.h.(5) <- (ctx.h.(5) + !f) land mask;
    ctx.h.(6) <- (ctx.h.(6) + !g) land mask;
    ctx.h.(7) <- (ctx.h.(7) + !hh) land mask

  let feed ctx data =
    let n = Bytes.length data in
    ctx.total <- ctx.total + n;
    let pos = ref 0 in
    while !pos < n do
      let take = min (64 - ctx.fill) (n - !pos) in
      Bytes.blit data !pos ctx.block ctx.fill take;
      ctx.fill <- ctx.fill + take;
      pos := !pos + take;
      if ctx.fill = 64 then begin
        compress ctx;
        ctx.fill <- 0
      end
    done

  let finalize_into ctx out =
    if Bytes.length out < 32 then invalid_arg "Sha256.finalize_into: need 32 bytes";
    (* padding, written in place: 0x80, zeros, 8-byte big-endian bit
       length — one more block when the length does not fit after 0x80 *)
    let block = ctx.block in
    Bytes.set block ctx.fill '\x80';
    Bytes.fill block (ctx.fill + 1) (63 - ctx.fill) '\000';
    if ctx.fill >= 56 then begin
      compress ctx;
      Bytes.fill block 0 56 '\000'
    end;
    Bytes.set_int64_be block 56 (Int64.of_int (8 * ctx.total));
    compress ctx;
    ctx.fill <- 0;
    for i = 0 to 7 do
      Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
    done

  let finalize ctx =
    let out = Bytes.create 32 in
    finalize_into ctx out;
    out

  let digest data =
    let ctx = init () in
    feed ctx data;
    finalize ctx

end

(* [data] cut into consecutive chunks of the given sizes, the last
   chunk taking whatever is left *)
let chunks data sizes =
  let n = Bytes.length data in
  let rec go pos = function
    | [] -> [ Bytes.sub data pos (n - pos) ]
    | k :: rest ->
        let k = min k (n - pos) in
        Bytes.sub data pos k :: go (pos + k) rest
  in
  go 0 sizes

(* the digest of [pieces] fed in order on a context from [init] *)
let digest_on init pieces =
  let ctx = init () in
  List.iter (Sha256.feed ctx) pieces;
  Sha256.finalize ctx

(* both cores: the dispatched one (SHA-NI where the CPU has it) and the
   portable one, which every machine runs *)
let sha256_inits = [ Sha256.init; Sha256.Portable.init ]

(* chunk sizes below and above the block size, so whole blocks are
   compressed straight from the caller's buffer at every alignment *)
let sha256_matches_reference =
  qtest ~count:200 "sha256 = OCaml reference, lengths 0..5000 in random chunks"
    QCheck2.Gen.(
      pair (string_size (int_range 0 5000))
        (list_size (int_range 0 12) (oneof [ int_range 0 70; int_range 0 700 ])))
    (fun (s, sizes) ->
      let data = Bytes.of_string s in
      let want = Ref_sha256.digest data in
      Sha256.digest data = want
      && List.for_all (fun init -> digest_on init (chunks data sizes) = want) sha256_inits)

(* one feed of 1..130 whole blocks, after a prefix that leaves the
   context at any fill and before a tail, so a multi-block call starts
   from every alignment of the caller's buffer *)
let sha256_multi_block =
  qtest ~count:300 "sha256 multi-block feeds of 1..130 blocks, both cores = reference"
    QCheck2.Gen.(
      triple (int_range 0 130) (int_range 1 130) (pair (int_range 0 70) (int_range 0 3)))
    (fun (plen, nblocks, (tlen, shift)) ->
      let pattern n seed = Bytes.init n (fun i -> Char.chr ((i * 31 + seed) land 0xFF)) in
      let prefix = pattern plen 1 and tail = pattern tlen 2 in
      (* the blocks sit at offset [shift] of a larger buffer *)
      let buf = pattern (shift + (64 * nblocks)) 3 in
      let blocks = Bytes.sub buf shift (64 * nblocks) in
      let want = Ref_sha256.digest (Bytes.concat Bytes.empty [ prefix; blocks; tail ]) in
      List.for_all (fun init -> digest_on init [ prefix; blocks; tail ] = want) sha256_inits)

(* The shape [Page_file.tag_into] feeds: a midstate copied into a
   scratch context holding stale state, a 4-byte page number, then a
   4,096-byte page.  The midstate must survive for the next message. *)
let sha256_page_shape =
  qtest ~count:100 "sha256 midstate + 4-byte number + 4096-byte page = reference"
    QCheck2.Gen.(
      triple
        (oneof [ return 64; int_range 0 200 ])
        (int_range 0 0x3FFFFFFF) (string_size (return 4096)))
    (fun (plen, no, page) ->
      let prefix = Bytes.init plen (fun i -> Char.chr (i land 0xFF)) in
      let page = Bytes.of_string page in
      let number = Bytes.create 4 in
      Bytes.set_int32_le number 0 (Int32.of_int no);
      List.for_all
        (fun init ->
          let mid = init () in
          Sha256.feed mid prefix;
          let scratch = init () in
          Sha256.feed scratch (Bytes.make 100 'x');
          let tag msg =
            Sha256.copy_into ~src:mid ~dst:scratch;
            List.iter (Sha256.feed scratch) msg;
            Sha256.finalize scratch
          in
          let t1 = tag [ number; page ] in
          let t2 = tag [ page ] in
          t1 = Ref_sha256.digest (Bytes.concat Bytes.empty [ prefix; number; page ])
          && t2 = Ref_sha256.digest (Bytes.cat prefix page))
        sha256_inits)

(* textbook HMAC over the reference hash *)
let ref_hmac key data =
  let key = if Bytes.length key > 64 then Ref_sha256.digest key else key in
  let pad byte =
    Bytes.init 64 (fun i ->
        Char.chr ((if i < Bytes.length key then Char.code (Bytes.get key i) else 0) lxor byte))
  in
  Ref_sha256.digest
    (Bytes.cat (pad 0x5C) (Ref_sha256.digest (Bytes.cat (pad 0x36) data)))

let hmac_matches_reference =
  qtest ~count:200 "hmac = HMAC over the OCaml reference, random keys"
    QCheck2.Gen.(pair (string_size (int_range 0 200)) (string_size (int_range 0 5000)))
    (fun (k, m) ->
      let key = Bytes.of_string k and m = Bytes.of_string m in
      Hmac.mac ~key m = ref_hmac key m)

(* ------------------------------------------------------------------ *)
(* ChaCha20: the RFC 8439 test vectors *)

let rfc8439_key = Bytes.init 32 Char.chr

let rfc8439_nonce =
  Bytes.of_string "\x00\x00\x00\x00\x00\x00\x00\x4a\x00\x00\x00\x00"

(* §2.4.2, the whole 114-byte ciphertext *)
let test_chacha20_rfc8439 () =
  let plaintext =
    "Ladies and Gentlemen of the class of '99: If I could offer you \
     only one tip for the future, sunscreen would be it."
  in
  let ciphertext =
    Chacha20.encrypt ~key:rfc8439_key ~nonce:rfc8439_nonce ~counter:1
      (Bytes.of_string plaintext)
  in
  Alcotest.(check string) "§2.4.2 ciphertext"
    ("6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
   ^ "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
   ^ "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
   ^ "5af90bbf74a35be6b40b8eedf2785e42874d")
    (hex_of ciphertext)

let zeros n = Bytes.make n '\000'

let key_with i c =
  let k = zeros 32 in
  Bytes.set k i c;
  k

let nonce_two =
  let n = zeros 12 in
  Bytes.set n 11 '\002';
  n

(* §2.3.2 and Appendix A.1: keystream blocks *)
let test_chacha20_block_vectors () =
  let check name ~key ~nonce ~counter expected =
    Alcotest.(check string) name expected (hex_of (Chacha20.block ~key ~nonce ~counter))
  in
  check "§2.3.2" ~key:rfc8439_key
    ~nonce:(Bytes.of_string "\x00\x00\x00\x09\x00\x00\x00\x4a\x00\x00\x00\x00")
    ~counter:1
    ("10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
   ^ "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
  check "A.1 #1" ~key:(zeros 32) ~nonce:(zeros 12) ~counter:0
    ("76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7"
   ^ "da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586");
  check "A.1 #2" ~key:(zeros 32) ~nonce:(zeros 12) ~counter:1
    ("9f07e7be5551387a98ba977c732d080dcb0f29a048e3656912c6533e32ee7aed"
   ^ "29b721769ce64e43d57133b074d839d531ed1f28510afb45ace10a1f4b794d6f");
  check "A.1 #3" ~key:(key_with 31 '\001') ~nonce:(zeros 12) ~counter:1
    ("3aeb5224ecf849929b9d828db1ced4dd832025e8018b8160b82284f3c949aa5a"
   ^ "8eca00bbb4a73bdad192b5c42f73f2fd4e273644c8b36125a64addeb006c13a0");
  check "A.1 #4" ~key:(key_with 1 '\xff') ~nonce:(zeros 12) ~counter:2
    ("72d54dfbf12ec44b362692df94137f328fea8da73990265ec1bbbea1ae9af0ca"
   ^ "13b25aa26cb4a648cb9b9d1be65b2c0924a66c54d545ec1b7374f4872e99f096");
  check "A.1 #5" ~key:(zeros 32) ~nonce:nonce_two ~counter:0
    ("c2c64d378cd536374ae204b9ef933fcd1a8b2288b3dfa49672ab765b54ee27c7"
   ^ "8a970e0e955c14f3a88e741b97c286f75f8fc299e8148362fa198a39531bed6d")

(* Appendix A.2: encryption *)
let test_chacha20_encrypt_vectors () =
  let check name ~key ~nonce ~counter plaintext expected =
    Alcotest.(check string) name expected
      (hex_of (Chacha20.encrypt ~key ~nonce ~counter (Bytes.of_string plaintext)))
  in
  check "A.2 #1" ~key:(zeros 32) ~nonce:(zeros 12) ~counter:0 (String.make 64 '\000')
    ("76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7"
   ^ "da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586");
  check "A.2 #2" ~key:(key_with 31 '\001') ~nonce:nonce_two ~counter:1
    ("Any submission to the IETF intended by the Contributor for publication as all \
      or part of an IETF Internet-Draft or RFC and any statement made within the \
      context of an IETF activity is considered an \"IETF Contribution\". Such \
      statements include oral statements in IETF sessions, as well as written and \
      electronic communications made at any time or place, which are addressed to")
    ("a3fbf07df3fa2fde4f376ca23e82737041605d9f4f4f57bd8cff2c1d4b7955ec"
   ^ "2a97948bd3722915c8f3d337f7d370050e9e96d647b7c39f56e031ca5eb6250d"
   ^ "4042e02785ececfa4b4bb5e8ead0440e20b6e8db09d881a7c6132f420e527950"
   ^ "42bdfa7773d8a9051447b3291ce1411c680465552aa6c405b7764d5e87bea85a"
   ^ "d00f8449ed8f72d0d662ab052691ca66424bc86d2df80ea41f43abf937d3259d"
   ^ "c4b2d0dfb48a6c9139ddd7f76966e928e635553ba76c5c879d7b35d49eb2e62b"
   ^ "0871cdac638939e25e8a1e0ef9d5280fa8ca328b351c3c765989cbcf3daa8b6c"
   ^ "cc3aaf9f3979c92b3720fc88dc95ed84a1be059c6499b9fda236e7e818b04b0b"
   ^ "c39c1e876b193bfe5569753f88128cc08aaa9b63d1a16f80ef2554d7189c411f"
   ^ "5869ca52c5b83fa36ff216b9c1d30062bebcfd2dc5bce0911934fda79a86f6e6"
   ^ "98ced759c3ff9b6477338f3da4f9cd8514ea9982ccafb341b2384dd902f3d1ab"
   ^ "7ac61dd29c6f21ba5b862f3730e37cfdc4fd806c22f221");
  check "A.2 #3"
    ~key:
      (Bytes.of_string
         "\x1c\x92\x40\xa5\xeb\x55\xd3\x8a\xf3\x33\x88\x86\x04\xf6\xb5\xf0\
          \x47\x39\x17\xc1\x40\x2b\x80\x09\x9d\xca\x5c\xbc\x20\x70\x75\xc0")
    ~nonce:nonce_two ~counter:42
    "'Twas brillig, and the slithy toves\n\
     Did gyre and gimble in the wabe:\n\
     All mimsy were the borogoves,\n\
     And the mome raths outgrabe."
    ("62e6347f95ed87a45ffae7426f27a1df5fb69110044c0d73118effa95b01e5cf"
   ^ "166d3df2d721caf9b21e5fb14c616871fd84c54f9d65b283196c7fe4f60553eb"
   ^ "f39c6402c42234e32a356b3e764312a61a5532055716ead6962568f87d3f3f77"
   ^ "04c6a8d1bcd1bf4d50d6154b6da731b187b58dfd728afa36757a797ac188d1")

(* A byte-at-a-time transcription of RFC 8439 §2.1-2.4 — a 16-word
   state array per block, one keystream byte per XOR — kept as the
   reference the word-wise kernel is compared against. *)
let reference_chacha20 ~key ~nonce ~counter data =
  let mask = 0xFFFFFFFF in
  let le32 b off =
    Char.code (Bytes.get b off)
    lor (Char.code (Bytes.get b (off + 1)) lsl 8)
    lor (Char.code (Bytes.get b (off + 2)) lsl 16)
    lor (Char.code (Bytes.get b (off + 3)) lsl 24)
  in
  let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask in
  let qr st a b c d =
    st.(a) <- (st.(a) + st.(b)) land mask;
    st.(d) <- rotl (st.(d) lxor st.(a)) 16;
    st.(c) <- (st.(c) + st.(d)) land mask;
    st.(b) <- rotl (st.(b) lxor st.(c)) 12;
    st.(a) <- (st.(a) + st.(b)) land mask;
    st.(d) <- rotl (st.(d) lxor st.(a)) 8;
    st.(c) <- (st.(c) + st.(d)) land mask;
    st.(b) <- rotl (st.(b) lxor st.(c)) 7
  in
  let n = Bytes.length data in
  let out = Bytes.copy data in
  for block = 0 to ((n + 63) / 64) - 1 do
    let st = Array.make 16 0 in
    st.(0) <- 0x61707865;
    st.(1) <- 0x3320646e;
    st.(2) <- 0x79622d32;
    st.(3) <- 0x6b206574;
    for j = 0 to 7 do
      st.(4 + j) <- le32 key (4 * j)
    done;
    st.(12) <- (counter + block) land mask;
    for j = 0 to 2 do
      st.(13 + j) <- le32 nonce (4 * j)
    done;
    let w = Array.copy st in
    for _ = 1 to 10 do
      qr w 0 4 8 12;
      qr w 1 5 9 13;
      qr w 2 6 10 14;
      qr w 3 7 11 15;
      qr w 0 5 10 15;
      qr w 1 6 11 12;
      qr w 2 7 8 13;
      qr w 3 4 9 14
    done;
    for i = 0 to min 64 (n - (64 * block)) - 1 do
      let ks = ((w.(i / 4) + st.(i / 4)) land mask) lsr (8 * (i mod 4)) land 0xFF in
      let p = (64 * block) + i in
      Bytes.set out p (Char.chr (Char.code (Bytes.get data p) lxor ks))
    done
  done;
  out

(* Every length 0..300 (each tail size, each block count up to 5) plus
   a random sample up to 4,200 (whole 4-block passes with every tail,
   and 4 KB pages) under random keys, nonces and counters.  Counters
   just below 2^32 put the wrap inside a 4-lane pass, at each lane.
   [_into] runs both into a separate buffer holding stale bytes and in
   place (src == dst); the keystream entry points are checked too.  A
   keystream prefix is the keystream of the prefix, so one reference
   run covers all lengths. *)
let chacha20_matches_reference =
  let max_len = 4200 in
  qtest ~count:50 "chacha20 = byte-wise reference, lengths 0..4200"
    QCheck2.Gen.(
      quad (string_size (return 32)) (string_size (return 12))
        (oneof
           [ int_range 0 0xFFFFFFFF;
             int_range (0xFFFFFFFF - 4) 0xFFFFFFFF;
             int_range (0xFFFFFFFF - 70) 0xFFFFFFFF ])
        (pair (string_size (return max_len)) (list_size (return 24) (int_range 301 max_len))))
    (fun (key, nonce, counter, (data, sampled)) ->
      let key = Bytes.of_string key and nonce = Bytes.of_string nonce in
      let data = Bytes.of_string data in
      let expected = reference_chacha20 ~key ~nonce ~counter data in
      let stream = reference_chacha20 ~key ~nonce ~counter:0 (zeros max_len) in
      let lengths =
        List.init 301 Fun.id @ [ 511; 512; 513; 4095; 4096; 4097; max_len ] @ sampled
      in
      Chacha20.block ~key ~nonce ~counter
      = reference_chacha20 ~key ~nonce ~counter (zeros 64)
      && List.for_all
           (fun n ->
             let want = Bytes.sub expected 0 n in
             let into = Bytes.make n '\xA5' in
             Chacha20.encrypt_into ~key ~nonce ~counter ~src:(Bytes.sub data 0 n) into;
             let inplace = Bytes.sub data 0 n in
             Chacha20.encrypt_into ~key ~nonce ~counter ~src:inplace inplace;
             let ks = Bytes.make n '\x5A' in
             Chacha20.keystream_into ~key ~nonce ks;
             Chacha20.encrypt ~key ~nonce ~counter (Bytes.sub data 0 n) = want
             && into = want && inplace = want
             && Chacha20.keystream ~key ~nonce n = Bytes.sub stream 0 n
             && ks = Bytes.sub stream 0 n)
           lengths)

(* Every core the CPU supports against the reference: the dispatched
   one (AVX-512 or AVX2 where the CPU has it), the AVX2 twin and the
   portable twin.  Every length 0..1,100 (each tail of the 4-block core,
   each block count up to 17) and the lengths around one, two, four,
   eight and sixteen 8-block passes (one, two and four 16-block passes
   among them), at every counter 2^32-17 .. 2^32-1 — so the counter
   wrap lands in each lane of a 16-block pass, and in the pass after
   it — and at counter 0.  The XOR entry points run into a separate
   buffer holding stale bytes and in place; the keystream entry points
   write a stale buffer. *)
module type Chacha_core = sig
  val encrypt_into : key:bytes -> nonce:bytes -> ?counter:int -> src:bytes -> bytes -> unit
  val keystream_into : key:bytes -> nonce:bytes -> ?counter:int -> bytes -> unit
end

let test_chacha20_every_core () =
  let rng = Random.State.make [| 8193 |] in
  let rand_bytes n = Bytes.init n (fun _ -> Char.chr (Random.State.int rng 256)) in
  let max_len = 8193 in
  let lengths =
    List.init 1101 Fun.id
    @ [ 2047; 2048; 2049; 4095; 4096; 4097; 8191; 8192; 8193 ]
  in
  let cores =
    [ ("dispatched " ^ Chacha20.core, (module Chacha20 : Chacha_core));
      ("avx2 twin on " ^ Chacha20.Avx2.core, (module Chacha20.Avx2));
      ("portable", (module Chacha20.Portable)) ]
  in
  List.iter
    (fun counter ->
      let key = rand_bytes 32 and nonce = rand_bytes 12 and data = rand_bytes max_len in
      let expected = reference_chacha20 ~key ~nonce ~counter data in
      let stream = reference_chacha20 ~key ~nonce ~counter (zeros max_len) in
      List.iter
        (fun (name, (module C : Chacha_core)) ->
          List.iter
            (fun n ->
              let what kind = Printf.sprintf "%s %s, counter %d, length %d" name kind counter n in
              let want = Bytes.sub expected 0 n in
              let into = Bytes.make n '\xA5' in
              C.encrypt_into ~key ~nonce ~counter ~src:(Bytes.sub data 0 n) into;
              let inplace = Bytes.sub data 0 n in
              C.encrypt_into ~key ~nonce ~counter ~src:inplace inplace;
              let ks = Bytes.make n '\x5A' in
              C.keystream_into ~key ~nonce ~counter ks;
              if into <> want then Alcotest.fail (what "into");
              if inplace <> want then Alcotest.fail (what "in place");
              if ks <> Bytes.sub stream 0 n then Alcotest.fail (what "keystream"))
            lengths)
        cores)
    (0 :: List.init 17 (fun i -> 0xFFFFFFFF - 16 + i))

let test_chacha20_into_length_mismatch () =
  let key = Sha256.digest_string "k" and nonce = Bytes.make 12 'n' in
  Alcotest.check_raises "src/dst lengths"
    (Invalid_argument "Chacha20.encrypt_into: src and dst lengths differ") (fun () ->
      Chacha20.encrypt_into ~key ~nonce ~src:(Bytes.make 10 'x') (Bytes.make 11 'x'))

let chacha20_roundtrip =
  qtest "chacha20 decrypt . encrypt = id" QCheck2.Gen.(string_size (int_range 0 300))
    (fun s ->
      let key = Sha256.digest_string "k" in
      let nonce = Bytes.make 12 'n' in
      let data = Bytes.of_string s in
      Chacha20.decrypt ~key ~nonce (Chacha20.encrypt ~key ~nonce data) = data)

let test_chacha20_nonce_separation () =
  let key = Sha256.digest_string "k" in
  let data = Bytes.make 64 'x' in
  let c1 = Chacha20.encrypt ~key ~nonce:(Bytes.make 12 '1') data in
  let c2 = Chacha20.encrypt ~key ~nonce:(Bytes.make 12 '2') data in
  Alcotest.(check bool) "distinct ciphertexts" true (c1 <> c2)

let test_chacha20_bad_sizes () =
  Alcotest.check_raises "short key" (Invalid_argument "Chacha20: key must be 32 bytes")
    (fun () -> ignore (Chacha20.block ~key:(Bytes.make 16 'k') ~nonce:(Bytes.make 12 'n') ~counter:0));
  Alcotest.check_raises "short nonce" (Invalid_argument "Chacha20: nonce must be 12 bytes")
    (fun () -> ignore (Chacha20.block ~key:(Bytes.make 32 'k') ~nonce:(Bytes.make 8 'n') ~counter:0))

(* ------------------------------------------------------------------ *)
(* PRF *)

(* The PRF as the library computed it before its tables were filled in
   C: one OCaml HMAC per point, from the derived key's pad states into
   a scratch the instance owns.  Kept as the reference [Prf.fill] is
   compared against. *)
module Ref_prf = struct
  type t = { key : Hmac.keyed; scratch : Hmac.scratch; msg : bytes; digest : bytes }

  let create ~key ~label =
    { key = Hmac.keyed (Hmac.derive ~key ~label);
      scratch = Hmac.scratch ();
      msg = Bytes.make 16 '\000';
      digest = Bytes.create 32 }

  (* the message is x as 8 little-endian bytes of its 63-bit pattern (the
     top bit of the 64-bit field is 0), then a zero 8-byte salt; the result
     is the low 62 bits of the tag's first 8 bytes, little-endian *)
  let int t x =
    Bytes.set_int64_le t.msg 0 (Int64.logand (Int64.of_int x) Int64.max_int);
    Hmac.mac_keyed_into t.key t.scratch t.msg t.digest;
    Int64.to_int (Bytes.get_int64_le t.digest 0) land max_int
end

(* one table of [len] entries from [Prf.fill] *)
let prf_table fill ~key ~label ~len ~mask =
  let dst = Array.make len (-1) in
  fill (Prf.create ~key:(Hmac.keyed key) ~label) dst ~off:0 ~len ~mask;
  dst

let test_prf_deterministic () =
  let key = Sha256.digest_string "key" in
  let a = prf_table Prf.fill ~key ~label:"test" ~len:64 ~mask:max_int in
  let b = prf_table Prf.fill ~key ~label:"test" ~len:64 ~mask:max_int in
  Alcotest.(check (array int)) "same key, same table" a b;
  Alcotest.(check bool) "nonnegative" true (Array.for_all (fun v -> v >= 0) a)

let test_prf_label_separation () =
  let key = Sha256.digest_string "key" in
  let a = prf_table Prf.fill ~key ~label:"a" ~len:64 ~mask:max_int in
  let b = prf_table Prf.fill ~key ~label:"b" ~len:64 ~mask:max_int in
  let differ = ref 0 in
  for x = 0 to 63 do
    if a.(x) <> b.(x) then incr differ
  done;
  Alcotest.(check bool) "labels separate" true (!differ > 60)

(* The PRF spelled out on the textbook HMAC: the instance key is
   derive(key, label) = HMAC(key, "psp-derive:" ^ label), and a call
   hashes x as 8 little-endian bytes of its 63-bit pattern followed by
   8 zero bytes, keeping the low 62 bits of the tag's first 8 bytes
   (little-endian). *)
let reference_prf ~key ~label =
  let k = reference_hmac key (Bytes.of_string ("psp-derive:" ^ label)) in
  fun x ->
    let msg = Bytes.make 16 '\000' in
    for i = 0 to 7 do
      Bytes.set msg i (Char.chr ((x lsr (8 * i)) land 0xFF))
    done;
    let d = reference_hmac k msg in
    let v = ref 0 in
    for i = 0 to 7 do
      v := !v lor (Char.code (Bytes.get d i) lsl (8 * i))
    done;
    !v land max_int

(* two instances of the OCaml loop that share nothing, called
   interleaved: each call must equal the textbook spelling whatever the
   other instance's scratch holds *)
let prf_matches_reference =
  qtest ~count:100 "prf int = textbook HMAC, interleaved"
    QCheck2.Gen.(
      triple (string_size (int_range 0 80)) (pair (string_size (int_range 0 12)) (string_size (int_range 0 12)))
        (list_size (int_range 1 8) int))
    (fun (key, (la, lb), xs) ->
      let key = Bytes.of_string key in
      let lb = lb ^ "/b" in
      let a = Ref_prf.create ~key ~label:la and b = Ref_prf.create ~key ~label:lb in
      let ra = reference_prf ~key ~label:la and rb = reference_prf ~key ~label:lb in
      List.for_all
        (fun x ->
          let ia = Ref_prf.int a x in
          let ib = Ref_prf.int b x in
          let ia' = Ref_prf.int a (x lxor 1) in
          ia = ra x && ib = rb x && ia' = ra (x lxor 1))
        xs)

(* [Prf.fill] on both SHA-256 cores against the OCaml loop, under random
   keys, at every table size a Feistel of domain 1 .. 10^6 uses (2^1 ..
   2^10 entries, masked to the half width) and, unmasked, at a size that
   keeps all 62 bits.  The table sits inside a larger array whose other
   entries must stay untouched. *)
let test_prf_fill_matches_loop () =
  let rng = Random.State.make [| 62 |] in
  let fills = [ ("dispatched " ^ Sha256.core, Prf.fill); ("portable", Prf.Portable.fill) ] in
  let sizes = List.init 10 (fun b -> (1 lsl (b + 1), (1 lsl (b + 1)) - 1)) @ [ (300, max_int) ] in
  for trial = 1 to 4 do
    let key = Bytes.init (Random.State.int rng 80) (fun _ -> Char.chr (Random.State.int rng 256)) in
    let label = Printf.sprintf "feistel-round-%d" (trial mod 4) in
    let prf = Prf.create ~key:(Hmac.keyed key) ~label in
    let loop = Ref_prf.create ~key ~label in
    List.iter
      (fun (len, mask) ->
        let want = Array.init len (fun x -> Ref_prf.int loop x land mask) in
        List.iter
          (fun (name, fill) ->
            let dst = Array.make (len + 6) (-7) in
            fill prf dst ~off:3 ~len ~mask;
            let what = Printf.sprintf "%s, key %d, %d entries" name trial len in
            Alcotest.(check (array int)) what want (Array.sub dst 3 len);
            Alcotest.(check (list int)) (what ^ ", outside the range") [ -7; -7; -7; -7; -7; -7 ]
              [ dst.(0); dst.(1); dst.(2); dst.(len + 3); dst.(len + 4); dst.(len + 5) ])
          fills)
      sizes
  done;
  let prf = Prf.create ~key:(Hmac.keyed (Bytes.make 32 'k')) ~label:"r" in
  Alcotest.check_raises "range past the end" (Invalid_argument "Prf.fill: range out of bounds")
    (fun () -> Prf.fill prf (Array.make 4 0) ~off:1 ~len:4 ~mask:3)

(* ------------------------------------------------------------------ *)
(* Feistel small-domain PRP *)

(* The permutation without round tables: four calls of the OCaml PRF
   loop per pass of the network, as before tabulation. *)
let reference_feistel ~key ~domain =
  let rec bits_for n acc = if n <= 1 then acc else bits_for ((n + 1) / 2) (acc + 1) in
  let width = max 2 (bits_for domain 0) in
  let h = (width + 1) / 2 in
  let mask = (1 lsl h) - 1 in
  let f = Array.init 4 (fun i -> Ref_prf.create ~key ~label:(Printf.sprintf "feistel-round-%d" i)) in
  let once_fwd x =
    let l = ref ((x lsr h) land mask) and r = ref (x land mask) in
    for i = 0 to 3 do
      let l' = !r and r' = !l lxor (Ref_prf.int f.(i) !r land mask) in
      l := l';
      r := r'
    done;
    (!l lsl h) lor !r
  in
  let once_bwd x =
    let l = ref ((x lsr h) land mask) and r = ref (x land mask) in
    for i = 3 downto 0 do
      let l' = !r lxor (Ref_prf.int f.(i) !l land mask) and r' = !l in
      l := l';
      r := r'
    done;
    (!l lsl h) lor !r
  in
  let rec walk step y =
    let y = step y in
    if y < domain then y else walk step y
  in
  (walk once_fwd, walk once_bwd, 4 lsl h)

let feistel_matches_reference =
  qtest ~count:30 "feistel tables = per-round PRF walk, domains 1..5000"
    QCheck2.Gen.(pair (int_range 1 5000) (string_size (return 32)))
    (fun (domain, key) ->
      let key = Bytes.of_string key in
      let p = Feistel.create ~key ~domain in
      let fwd, bwd, words = reference_feistel ~key ~domain in
      (* up to 200 points spread over the domain, both directions *)
      let points = List.init (min domain 200) (fun i -> i * domain / min domain 200) in
      Feistel.table_words p = words
      && List.for_all (fun x -> Feistel.forward p x = fwd x && Feistel.backward p x = bwd x) points)

let feistel_bijective =
  qtest ~count:50 "feistel is a bijection on [0,n)" QCheck2.Gen.(int_range 1 500)
    (fun n ->
      let p = Feistel.create ~key:(Sha256.digest_string "k") ~domain:n in
      let image = Feistel.to_array p in
      let sorted = Array.copy image in
      Array.sort compare sorted;
      sorted = Array.init n (fun i -> i))

let feistel_inverse =
  qtest ~count:50 "feistel backward inverts forward"
    QCheck2.Gen.(pair (int_range 1 500) small_nat)
    (fun (n, x) ->
      let x = x mod n in
      let p = Feistel.create ~key:(Sha256.digest_string "inv") ~domain:n in
      Feistel.backward p (Feistel.forward p x) = x
      && Feistel.forward p (Feistel.backward p x) = x)

let test_feistel_key_sensitivity () =
  let n = 256 in
  let p1 = Feistel.create ~key:(Sha256.digest_string "a") ~domain:n in
  let p2 = Feistel.create ~key:(Sha256.digest_string "b") ~domain:n in
  let same = Array.to_list (Array.init n (fun i -> Feistel.forward p1 i = Feistel.forward p2 i)) in
  let count = List.length (List.filter Fun.id same) in
  Alcotest.(check bool) "permutations differ" true (count < n / 4)

let test_feistel_domain_checks () =
  let p = Feistel.create ~key:(Sha256.digest_string "k") ~domain:10 in
  Alcotest.(check int) "domain" 10 (Feistel.domain p);
  Alcotest.check_raises "out of domain" (Invalid_argument "Feistel: point out of domain")
    (fun () -> ignore (Feistel.forward p 10))

(* Golden digests pin the PRF's consumers bit for bit: any change to the
   HMAC/PRF path that moved one output would move the slot layout of
   every pyramid level. *)
let digest_ints xs = hex_of (Sha256.digest_string (String.concat "," (List.map string_of_int xs)))

let test_feistel_golden () =
  let p = Feistel.create ~key:(Sha256.digest_string "golden-feistel") ~domain:1000 in
  Alcotest.(check string) "to_array digest"
    "626089afd9e139a38fd7e3356735938b045d2063a472af50907983c1905b5452"
    (digest_ints (Array.to_list (Feistel.to_array p)))

let () =
  (* in the log of every run, so a machine without SHA-NI or AVX2 (whose
     dispatched cores are the portable ones) shows up *)
  Printf.printf "crypto cores: sha256 %s, chacha20 %s\n%!" Sha256.core Chacha20.core;
  Alcotest.run "crypto"
    [ ( "sha256",
        [ Alcotest.test_case "empty" `Quick test_sha256_empty;
          Alcotest.test_case "abc" `Quick test_sha256_abc;
          Alcotest.test_case "448 bits" `Quick test_sha256_448bits;
          Alcotest.test_case "million a" `Slow test_sha256_million_a;
          Alcotest.test_case "streaming" `Quick test_sha256_streaming_equals_oneshot;
          sha256_matches_reference;
          sha256_multi_block;
          sha256_page_shape ] );
      ( "hmac",
        [ Alcotest.test_case "rfc4231 case1" `Quick test_hmac_rfc4231_case1;
          Alcotest.test_case "rfc4231 case2" `Quick test_hmac_rfc4231_case2;
          Alcotest.test_case "rfc4231 case3" `Quick test_hmac_rfc4231_case3;
          Alcotest.test_case "rfc4231 long key" `Quick test_hmac_rfc4231_long_key;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
          Alcotest.test_case "derive labels" `Quick test_hmac_derive_labels;
          hmac_keyed_equals_mac;
          hmac_derive_keyed;
          hmac_into_equals_reference;
          hmac_matches_reference ] );
      ( "chacha20",
        [ Alcotest.test_case "rfc8439 vector" `Quick test_chacha20_rfc8439;
          Alcotest.test_case "rfc8439 block vectors" `Quick test_chacha20_block_vectors;
          Alcotest.test_case "rfc8439 encryption vectors" `Quick test_chacha20_encrypt_vectors;
          chacha20_matches_reference;
          Alcotest.test_case "dispatched = portable = reference, lengths 0..8193, every core"
            `Quick test_chacha20_every_core;
          chacha20_roundtrip;
          Alcotest.test_case "nonce separation" `Quick test_chacha20_nonce_separation;
          Alcotest.test_case "bad sizes" `Quick test_chacha20_bad_sizes;
          Alcotest.test_case "into length mismatch" `Quick test_chacha20_into_length_mismatch ] );
      ( "prf",
        [ Alcotest.test_case "deterministic" `Quick test_prf_deterministic;
          Alcotest.test_case "label separation" `Quick test_prf_label_separation;
          prf_matches_reference;
          Alcotest.test_case "fill = OCaml HMAC loop, every Feistel table size, both cores"
            `Quick test_prf_fill_matches_loop ] );
      ( "feistel",
        [ feistel_bijective;
          feistel_inverse;
          feistel_matches_reference;
          Alcotest.test_case "key sensitivity" `Quick test_feistel_key_sensitivity;
          Alcotest.test_case "domain checks" `Quick test_feistel_domain_checks;
          Alcotest.test_case "golden permutation" `Quick test_feistel_golden ] ) ]
