/* SHA-256 compression function (FIPS 180-4 §6.2.2), scalar.

   [psp_sha256_compress h buf off] absorbs the 64-byte block at
   buf[off .. off + 63] into the eight state words of [h], an OCaml
   [int array] holding each 32-bit word as an immediate.  The new words
   are immediates too, so they are stored with [Val_long] and need no
   write barrier.

   Fixed trip counts (64 schedule words, 64 rounds), no data-dependent
   branch, and the only table, K, is indexed by the round number.

   Boundary: the OCaml side ([sha256.ml]) checks off + 64 <= length buf
   before the call, and the external is [@@noalloc]: this function never
   allocates, raises, calls back into OCaml or releases the runtime
   lock. */

#include <stdint.h>
#include <caml/mlvalues.h>

static const uint32_t K[64] = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
  0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
  0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
  0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
  0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
  0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2
};

static inline uint32_t load32_be(const unsigned char *p)
{
  return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16) | ((uint32_t)p[2] << 8)
         | (uint32_t)p[3];
}

#define ROTR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

value psp_sha256_compress(value h, value buf, value off)
{
  const unsigned char *p = Bytes_val(buf) + Long_val(off);
  uint32_t w[64], v[8];
  for (int i = 0; i < 16; i++) w[i] = load32_be(p + 4 * i);
  for (int i = 16; i < 64; i++) {
    uint32_t x = w[i - 15], y = w[i - 2];
    uint32_t s0 = ROTR(x, 7) ^ ROTR(x, 18) ^ (x >> 3);
    uint32_t s1 = ROTR(y, 17) ^ ROTR(y, 19) ^ (y >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  for (int i = 0; i < 8; i++) v[i] = (uint32_t)Long_val(Field(h, i));
  uint32_t a = v[0], b = v[1], c = v[2], d = v[3];
  uint32_t e = v[4], f = v[5], g = v[6], hh = v[7];
  for (int i = 0; i < 64; i++) {
    uint32_t s1 = ROTR(e, 6) ^ ROTR(e, 11) ^ ROTR(e, 25);
    uint32_t ch = (e & f) ^ (~e & g);
    uint32_t t1 = hh + s1 + ch + K[i] + w[i];
    uint32_t s0 = ROTR(a, 2) ^ ROTR(a, 13) ^ ROTR(a, 22);
    uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    uint32_t t2 = s0 + maj;
    hh = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  v[0] += a; v[1] += b; v[2] += c; v[3] += d;
  v[4] += e; v[5] += f; v[6] += g; v[7] += hh;
  for (int i = 0; i < 8; i++) Field(h, i) = Val_long(v[i]);
  return Val_unit;
}
