(** SHA-256 (FIPS 180-4), pure OCaml.

    The hash underlying every keyed primitive in the simulated secure
    co-processor: HMAC, the PRF, the Feistel round functions and Bloom
    filter indexing.  Verified against the FIPS test vectors in the test
    suite. *)

type ctx
(** Streaming hash context. *)

val init : unit -> ctx
(** A fresh context. *)

val feed : ctx -> bytes -> unit
(** Absorb a chunk; chunks may arrive at any granularity. *)

val feed_string : ctx -> string -> unit
(** {!feed} for strings. *)

val copy : ctx -> ctx
(** An independent context in the same state: feeding or finalizing one
    leaves the other untouched.  [Hmac.keyed] uses it to reuse its
    ipad/opad midstates across messages. *)

val finalize : ctx -> bytes
(** 32-byte digest.  The context must not be reused afterwards. *)

val digest : bytes -> bytes
(** One-shot hash. *)

val digest_string : string -> bytes
(** One-shot hash of a string. *)

val hex : bytes -> string
(** Lowercase hexadecimal rendering of a digest. *)
