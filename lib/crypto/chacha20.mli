(** ChaCha20 stream cipher (RFC 8439).

    Pages stored in the oblivious levels of the simulated PIR server are
    encrypted with ChaCha20 under per-level keys; re-encryption during
    reshuffles uses a fresh nonce so ciphertexts are unlinkable.

    The block function is C ([chacha20_stubs.c]) in three cores, all
    with fixed trip counts on the public length and no key- or
    data-dependent branch or table index: a 16-lane AVX-512 core that
    runs every whole 1,024-byte stretch, an 8-lane AVX2 core for every
    whole 512-byte stretch after that, and a portable 4-lane vector core
    for the remainder.  The fastest core the CPU has is chosen once per
    process; on a machine without AVX-512 or AVX2 the cores below it
    run everything.  Sizes are checked here before the call.  A call
    allocates only the bytes it returns, and the [_into] variants
    allocate nothing.  Checked against the RFC 8439 vectors and a
    byte-at-a-time reference in the test suite, on every core the CPU
    supports. *)

val core : string
(** The fastest core the process dispatches to: ["avx512"], ["avx2"] or
    ["portable"]. *)

val block : key:bytes -> nonce:bytes -> counter:int -> bytes
(** The 64-byte keystream block for a 32-byte key, a 12-byte nonce and
    a 32-bit block counter.
    @raise Invalid_argument on wrong key/nonce sizes. *)

val encrypt : key:bytes -> nonce:bytes -> ?counter:int -> bytes -> bytes
(** XOR the keystream into the plaintext, block counter starting at
    [counter] (default 0, taken modulo 2{^32}).  Encryption and
    decryption are the same operation.
    @raise Invalid_argument on wrong key/nonce sizes. *)

val decrypt : key:bytes -> nonce:bytes -> ?counter:int -> bytes -> bytes

val encrypt_into : key:bytes -> nonce:bytes -> ?counter:int -> src:bytes -> bytes -> unit
(** [encrypt_into ~key ~nonce ?counter ~src dst] writes
    [encrypt ~key ~nonce ?counter src] into [dst] without allocating;
    [src] may be [dst] (in-place encryption).
    @raise Invalid_argument on wrong key/nonce sizes or when [src] and
    [dst] differ in length. *)

val keystream : key:bytes -> nonce:bytes -> int -> bytes
(** First [n] keystream bytes, counter starting at 0 — the encryption of
    [n] zero bytes, written without materializing them. *)

val keystream_into : key:bytes -> nonce:bytes -> ?counter:int -> bytes -> unit
(** Overwrite the whole buffer with the first [Bytes.length] keystream
    bytes, block counter starting at [counter] (default 0, taken modulo
    2{^32}) — {!keystream} into an existing buffer, written directly
    rather than XORed into zeros.  The pyramid store rewrites its dummy
    and unused slots with it.
    @raise Invalid_argument on wrong key/nonce sizes. *)

(** {!encrypt_into} and {!keystream_into} on the portable core whatever
    the CPU offers, so tests compare the two cores on every machine.
    The bytes are the same; only the speed differs. *)
module Portable : sig
  val encrypt_into : key:bytes -> nonce:bytes -> ?counter:int -> src:bytes -> bytes -> unit
  val keystream_into : key:bytes -> nonce:bytes -> ?counter:int -> bytes -> unit
end

(** {!encrypt_into} and {!keystream_into} on the AVX2 core (and the
    portable core for the tail) whatever faster core the CPU offers, so
    a machine with AVX-512 still checks the AVX2 core. *)
module Avx2 : sig
  val core : string
  (** ["avx2"] where the CPU has AVX2; ["portable"] elsewhere, where
      this module runs the portable core. *)

  val encrypt_into : key:bytes -> nonce:bytes -> ?counter:int -> src:bytes -> bytes -> unit
  val keystream_into : key:bytes -> nonce:bytes -> ?counter:int -> bytes -> unit
end
