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

type scratch
(** Working state for the allocation-free calls below: one SHA-256
    context and an inner-digest buffer.  Reused across messages; one
    message at a time, so a [scratch] must not be shared between
    concurrent users (e.g. two domains). *)

val scratch : unit -> scratch

val start : keyed -> scratch -> unit
(** Begin a message under the key: the scratch takes the ipad state. *)

val feed : scratch -> bytes -> unit
(** Absorb the next part of the message, at any granularity. *)

val finish_into : keyed -> scratch -> bytes -> unit
(** Write the 32-byte tag of the message begun by {!start} into the
    first 32 bytes of the buffer.  [start k s; feed s m; finish_into k s
    dst] writes [mac_keyed k m]; nothing is allocated. *)

val mac_keyed_into : keyed -> scratch -> bytes -> bytes -> unit
(** [mac_keyed_into k s m dst] is [start], [feed m] and [finish_into]
    in one call. *)

val equal : bytes -> bytes -> bool
(** Constant-time comparison of two tags: [false] on a length mismatch,
    otherwise a fold over every byte. *)

val verify : key:bytes -> bytes -> tag:bytes -> bool
(** Constant-time tag comparison: [equal (mac ~key m) tag]. *)

val derive : key:bytes -> label:string -> bytes
(** [derive ~key ~label] is a 32-byte subkey bound to [label];
    distinct labels give independent subkeys. *)
