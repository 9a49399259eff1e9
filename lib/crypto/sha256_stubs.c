/* SHA-256 compression function (FIPS 180-4 §6.2.2), two cores.

   [psp_sha256_compress h buf off nblocks] absorbs the [nblocks]
   consecutive 64-byte blocks at buf[off ..] into the eight state words
   of [h], an OCaml [int array] holding each 32-bit word as an
   immediate.  The new words are immediates too, so they are stored with
   [Val_long] and need no write barrier.

   - The portable core is scalar C: fixed trip counts (64 schedule
     words, 64 rounds), no data-dependent branch, and the only table, K,
     is indexed by the round number.
   - On x86-64 the SHA extensions (SHA-NI) run the same rounds in
     hardware: [sha256msg1]/[sha256msg2] expand the schedule and
     [sha256rnds2] does two rounds per instruction, again with fixed
     trip counts and K indexed by the round number only.

   Dispatch rule: the core is chosen once per process, by a constructor
   that asks [__builtin_cpu_supports] before [main]; no call checks the
   CPU again.  The SHA-NI core is compiled with a target attribute, not
   a -march flag, so the build runs on any x86-64.  On other
   architectures, and with a compiler that cannot be relied on for the
   builtin, the portable core is the only path.
   [psp_sha256_compress_portable] runs the portable core whatever the
   CPU offers, so tests check the two cores against each other on every
   machine.

   Boundary: the OCaml side ([sha256.ml]) checks
   off + 64 * nblocks <= length buf before the call, and the externals
   are [@@noalloc]: these functions never allocate, raise, call back
   into OCaml or release the runtime lock. */

#include <stddef.h>
#include <stdint.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12
#define PSP_SHA_NI 1
#include <immintrin.h>
#endif

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

static void compress_portable(uint32_t v[8], const unsigned char *p, size_t nblocks)
{
  for (; nblocks > 0; nblocks--, p += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; i++) w[i] = load32_be(p + 4 * i);
    for (int i = 16; i < 64; i++) {
      uint32_t x = w[i - 15], y = w[i - 2];
      uint32_t s0 = ROTR(x, 7) ^ ROTR(x, 18) ^ (x >> 3);
      uint32_t s1 = ROTR(y, 17) ^ ROTR(y, 19) ^ (y >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
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
  }
}

#ifdef PSP_SHA_NI
/* The state travels as two vectors, ABEF and CDGH, the operand order of
   sha256rnds2.  Message words are byte-swapped to big-endian with one
   pshufb per 16 bytes. */
__attribute__((target("sha,sse4.1,ssse3")))
static void compress_shani(uint32_t v[8], const unsigned char *p, size_t nblocks)
{
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i dcba = _mm_loadu_si128((const __m128i *)&v[0]);
  __m128i hgfe = _mm_loadu_si128((const __m128i *)&v[4]);
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  for (; nblocks > 0; nblocks--, p += 64) {
    __m128i w[16];
    const __m128i abef0 = abef, cdgh0 = cdgh;
    for (int g = 0; g < 4; g++)
      w[g] = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16 * g)), bswap);
    /* w[g] holds schedule words 4g .. 4g+3 */
    for (int g = 4; g < 16; g++) {
      __m128i t = _mm_sha256msg1_epu32(w[g - 4], w[g - 3]);
      t = _mm_add_epi32(t, _mm_alignr_epi8(w[g - 1], w[g - 2], 4));
      w[g] = _mm_sha256msg2_epu32(t, w[g - 1]);
    }
    for (int g = 0; g < 16; g++) {
      __m128i wk = _mm_add_epi32(w[g], _mm_loadu_si128((const __m128i *)&K[4 * g]));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef0);
    cdgh = _mm_add_epi32(cdgh, cdgh0);
  }
  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128((__m128i *)&v[0], _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128((__m128i *)&v[4], _mm_alignr_epi8(dchg, feba, 8));
}
#endif

static void (*compress)(uint32_t v[8], const unsigned char *p, size_t nblocks) =
  compress_portable;

#ifdef PSP_SHA_NI
__attribute__((constructor))
static void select_core(void)
{
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")
      && __builtin_cpu_supports("ssse3"))
    compress = compress_shani;
}
#endif

static value run(void (*core)(uint32_t *, const unsigned char *, size_t), value h, value buf,
                 value off, value nblocks)
{
  uint32_t v[8];
  for (int i = 0; i < 8; i++) v[i] = (uint32_t)Long_val(Field(h, i));
  core(v, Bytes_val(buf) + Long_val(off), (size_t)Long_val(nblocks));
  for (int i = 0; i < 8; i++) Field(h, i) = Val_long(v[i]);
  return Val_unit;
}

value psp_sha256_compress(value h, value buf, value off, value nblocks)
{
  return run(compress, h, buf, off, nblocks);
}

value psp_sha256_compress_portable(value h, value buf, value off, value nblocks)
{
  return run(compress_portable, h, buf, off, nblocks);
}

/* whether the dispatched core is the hardware one */
value psp_sha256_hardware(value unit)
{
  (void)unit;
  return Val_bool(compress != compress_portable);
}
