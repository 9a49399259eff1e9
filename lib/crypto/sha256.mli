(** SHA-256 (FIPS 180-4).

    The hash underlying every keyed primitive in the simulated secure
    co-processor: HMAC, the PRF, the Feistel round functions and page
    authentication.  The compression function is C
    ([sha256_stubs.c]), in two cores with the same fixed 64 rounds, no
    data-dependent branch and the K table indexed by the round number:
    the x86-64 SHA extensions (SHA-NI) where the CPU has them, chosen
    once per process, and a portable scalar core everywhere else.
    Padding and buffering stay here; {!feed} passes all the whole blocks
    of a chunk to the core in one call, straight from the caller's
    buffer.  Verified against the FIPS test vectors and the retired
    OCaml implementation in the test suite, on both cores. *)

type ctx
(** Streaming hash context. *)

val init : unit -> ctx
(** A fresh context on the dispatched core. *)

val core : string
(** The core {!init} contexts run on: ["sha-ni"] or ["portable"]. *)

module Portable : sig
  val init : unit -> ctx
  (** A fresh context on the portable core whatever the CPU offers, so
      tests compare the two cores on every machine.  The bytes are the
      same; only the speed differs. *)
end

val feed : ctx -> bytes -> unit
(** Absorb a chunk; chunks may arrive at any granularity.  Only a
    partial block is copied into the context. *)

val feed_string : ctx -> string -> unit
(** {!feed} for strings. *)

val copy_into : src:ctx -> dst:ctx -> unit
(** Put [dst] in [src]'s state without allocating ([dst] keeps the
    core it was created on): feeding or
    finalizing either one afterwards leaves the other untouched.  HMAC
    copies its precomputed ipad/opad midstates into a scratch context
    this way for every message. *)

val midstate : ctx -> int array
(** A fresh copy of the eight state words (each a 32-bit value) of a
    context that has absorbed whole blocks only: the chaining value a
    one-call C loop resumes from ({!Prf.fill}).
    @raise Invalid_argument if a partial block is buffered. *)

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
