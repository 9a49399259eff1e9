(** HMAC-SHA-256 (RFC 2104) and an HKDF-style key deriver.

    Keys in the simulated SCP are 32-byte strings; all session keys and
    per-level ORAM keys are derived from a master key with [derive].

    HMAC hashes the key twice, padded to one SHA-256 block (ipad, opad),
    before the message.  A key used for many messages — a PRF key —
    should be prepared once with {!val:keyed}: {!mac_keyed} then starts
    from copies of the two padded-key states, so a message that fits one
    block with its padding (up to 55 bytes) costs two compressions
    instead of four, with the same tag. *)

val mac : key:bytes -> bytes -> bytes
(** 32-byte authentication tag. *)

val mac_string : key:bytes -> string -> bytes

type keyed
(** A key with its ipad and opad SHA-256 states precomputed. *)

val keyed : bytes -> keyed
(** Normalize and pad the key once. *)

val mac_keyed : keyed -> bytes -> bytes
(** [mac_keyed (keyed key) m] equals [mac ~key m]; the [keyed] value
    is not changed and may be reused for any number of messages. *)

val verify : key:bytes -> bytes -> tag:bytes -> bool
(** Constant-time tag comparison. *)

val derive : key:bytes -> label:string -> bytes
(** [derive ~key ~label] is a 32-byte subkey bound to [label];
    distinct labels give independent subkeys. *)
