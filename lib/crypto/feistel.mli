(** Small-domain pseudo-random permutations via a balanced Feistel
    network with cycle-walking.

    The Williams–Sion construction scrambles each ORAM level with a
    secret permutation of its slots.  A four-round Feistel network over
    [ceil(log2 n)] bits, keyed per level and epoch, gives an invertible
    permutation of [[0,n)] without materializing it.

    Each round function maps a half of [h = ceil(log2 n) / 2] bits (the
    width rounded up to even), so it has only 2{^h} inputs:
    {!create} tabulates all four rounds (Black–Rogaway, "Ciphers with
    Arbitrary Finite Domains", CT-RSA 2002) and a point then costs a few
    table lookups per cycle-walk step instead of four PRF calls.  The
    tables take [4 · 2{^h}] words, O(√n): the SCP holds them beside its
    c·√N page budget, and at the paper's 2.5 GB file cap (the deepest
    level's domain is under 2{^22}) they are 8192 words, 64 KB — far
    inside [Psp_pir.Cost_model.scp_memory_needed] for that file, which
    [test_pir] asserts.  Building them is four {!Prf.fill} calls, one C
    call per round computing all 2{^h} entries (two SHA-256 compressions
    each), paid once per permutation (per level epoch); the four round
    keys are derived from the permutation key's HMAC pad states,
    prepared once. *)

type t

val create : key:bytes -> domain:int -> t
(** Permutation of [[0, domain)].
    @raise Invalid_argument if [domain <= 0]. *)

val domain : t -> int

val table_words : t -> int
(** Words of round tables the permutation holds: [4 · 2{^h}]. *)

val forward : t -> int -> int
(** Image of a point.  @raise Invalid_argument if out of domain. *)

val backward : t -> int -> int
(** Pre-image of a point; [backward t (forward t x) = x]. *)

val to_array : t -> int array
(** Materialize the full permutation (testing/shuffles of small levels). *)
