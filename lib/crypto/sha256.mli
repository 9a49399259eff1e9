(** SHA-256 (FIPS 180-4).

    The hash underlying every keyed primitive in the simulated secure
    co-processor: HMAC, the PRF, the Feistel round functions, Bloom
    filter indexing and page authentication.  The compression function
    is C ([sha256_stubs.c]): scalar, 64 fixed rounds, no data-dependent
    branch, its only table indexed by the round number.  Padding and
    buffering stay here; {!feed} compresses whole blocks straight from
    the caller's buffer.  Verified against the FIPS test vectors and the
    retired OCaml implementation in the test suite. *)

type ctx
(** Streaming hash context. *)

val init : unit -> ctx
(** A fresh context. *)

val feed : ctx -> bytes -> unit
(** Absorb a chunk; chunks may arrive at any granularity.  Only a
    partial block is copied into the context. *)

val feed_string : ctx -> string -> unit
(** {!feed} for strings. *)

val copy_into : src:ctx -> dst:ctx -> unit
(** Put [dst] in [src]'s state without allocating: feeding or
    finalizing either one afterwards leaves the other untouched.  HMAC
    copies its precomputed ipad/opad midstates into a scratch context
    this way for every message. *)

val finalize : ctx -> bytes
(** 32-byte digest.  The context must not be reused afterwards, except
    as the [dst] of {!copy_into}. *)

val finalize_into : ctx -> bytes -> unit
(** {!finalize}, writing the digest into the first 32 bytes of the
    buffer instead of a fresh one.
    @raise Invalid_argument if the buffer is shorter than 32 bytes. *)

val digest : bytes -> bytes
(** One-shot hash. *)

val digest_string : string -> bytes
(** One-shot hash of a string. *)

val hex : bytes -> string
(** Lowercase hexadecimal rendering of a digest. *)
