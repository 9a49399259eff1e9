/* ChaCha20 (RFC 8439) keystream, two cores.

   - The portable core is written with GCC/Clang vector extensions: lane
     l of the sixteen 4-lane state vectors is the block with counter
     ctr + l (mod 2^32), so a call to [blocks4] yields 256 keystream
     bytes.  With no -march flag this compiles to baseline SSE2 on
     x86-64 (NEON on arm64).
   - On x86-64 with AVX2, [blocks8] runs eight blocks per pass in 8-lane
     vectors (lane l is again block ctr + l mod 2^32): rotations by 16
     and 8 are byte shuffles, and the output is written through
     in-register 4x4 transposes and 128-bit stores.  Every whole
     512-byte run of a message goes through it; the remainder runs the
     portable core.

   Dispatch rule: the core is chosen once per process, by a constructor
   that asks [__builtin_cpu_supports] before [main]; no call checks the
   CPU again.  The AVX2 core is compiled with a target attribute, not a
   -march flag, so the build runs on any x86-64.  On other
   architectures, and with a compiler that cannot be relied on for the
   builtin, the portable core is the only path.  The [_portable] entry
   points run the portable core whatever the CPU offers, so tests check
   the two cores against each other on every machine.

   Key, nonce and keystream words are read and written with explicit
   little-endian byte order (the AVX2 core exists only on little-endian
   x86-64), so the output does not depend on the host's endianness.
   Trip counts depend only on the public message length; no branch and
   no memory index depends on key, nonce or data.

   Boundary: the OCaml side ([chacha20.ml]) checks every size before
   the call (32-byte key, 12-byte nonce, equal src/dst lengths), and the
   externals are [@@noalloc]: these functions never allocate, raise,
   call back into OCaml or release the runtime lock. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12
#define PSP_AVX2 1
#include <immintrin.h>
#endif

typedef uint32_t u32x4 __attribute__((vector_size(16)));
typedef unsigned char u8x16 __attribute__((vector_size(16)));

static inline uint32_t load32_le(const unsigned char *p)
{
  return (uint32_t)p[0] | ((uint32_t)p[1] << 8) | ((uint32_t)p[2] << 16)
         | ((uint32_t)p[3] << 24);
}

static inline void store32_le(unsigned char *p, uint32_t v)
{
  p[0] = (unsigned char)v;
  p[1] = (unsigned char)(v >> 8);
  p[2] = (unsigned char)(v >> 16);
  p[3] = (unsigned char)(v >> 24);
}

#define ROTL(v, n) (((v) << (n)) | ((v) >> (32 - (n))))

#define QR(a, b, c, d)                                                    \
  do {                                                                    \
    a += b; d = ROTL(d ^ a, 16);                                          \
    c += d; b = ROTL(b ^ c, 12);                                          \
    a += b; d = ROTL(d ^ a, 8);                                           \
    c += d; b = ROTL(b ^ c, 7);                                           \
  } while (0)

/* The initial state of a block, counter word (12) left for the cores. */
static void setup(uint32_t in[16], const unsigned char *key, const unsigned char *nonce)
{
  in[0] = 0x61707865; /* "expand 32-byte k" */
  in[1] = 0x3320646e;
  in[2] = 0x79622d32;
  in[3] = 0x6b206574;
  for (int i = 0; i < 8; i++) in[4 + i] = load32_le(key + 4 * i);
  in[12] = 0;
  for (int i = 0; i < 3; i++) in[13 + i] = load32_le(nonce + 4 * i);
}

/* The 256 keystream bytes of blocks ctr .. ctr + 3 into [out]. */
static void blocks4(const uint32_t in[16], uint32_t ctr, unsigned char *out)
{
  u32x4 s[16], x[16];
  for (int i = 0; i < 16; i++) s[i] = (u32x4){ in[i], in[i], in[i], in[i] };
  s[12] = (u32x4){ ctr, ctr + 1, ctr + 2, ctr + 3 };
  for (int i = 0; i < 16; i++) x[i] = s[i];
  for (int r = 0; r < 10; r++) {
    QR(x[0], x[4], x[8], x[12]);
    QR(x[1], x[5], x[9], x[13]);
    QR(x[2], x[6], x[10], x[14]);
    QR(x[3], x[7], x[11], x[15]);
    QR(x[0], x[5], x[10], x[15]);
    QR(x[1], x[6], x[11], x[12]);
    QR(x[2], x[7], x[8], x[13]);
    QR(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; i++) {
    u32x4 v = x[i] + s[i];
    for (int l = 0; l < 4; l++) store32_le(out + 64 * l + 4 * i, v[l]);
  }
}

/* d[0 .. n) = s[0 .. n) ^ keystream, or the keystream itself when [s]
   is NULL, block counter starting at [ctr] (mod 2^32).  [s] may be [d]:
   each 16-byte chunk is loaded before it is stored. */
static void stream_portable(const uint32_t in[16], uint32_t ctr, const unsigned char *s,
                            unsigned char *d, size_t n)
{
  unsigned char ks[256];
  size_t off = 0;
  for (; n - off >= 256; off += 256, ctr += 4) {
    if (s == NULL) {
      blocks4(in, ctr, d + off);
      continue;
    }
    blocks4(in, ctr, ks);
    for (size_t j = 0; j < 256; j += 16) {
      u8x16 a, b;
      memcpy(&a, s + off + j, 16);
      memcpy(&b, ks + j, 16);
      a ^= b;
      memcpy(d + off + j, &a, 16);
    }
  }
  if (off < n) {
    blocks4(in, ctr, ks);
    if (s == NULL) memcpy(d + off, ks, n - off);
    else for (size_t j = 0; off + j < n; j++) d[off + j] = s[off + j] ^ ks[j];
  }
}

#ifdef PSP_AVX2
#define ROTL8X(v, n) _mm256_or_si256(_mm256_slli_epi32(v, n), _mm256_srli_epi32(v, 32 - (n)))

#define QR8(a, b, c, d)                                                            \
  do {                                                                             \
    a = _mm256_add_epi32(a, b); d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), r16); \
    c = _mm256_add_epi32(c, d); b = ROTL8X(_mm256_xor_si256(b, c), 12);           \
    a = _mm256_add_epi32(a, b); d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), r8);  \
    c = _mm256_add_epi32(c, d); b = ROTL8X(_mm256_xor_si256(b, c), 7);            \
  } while (0)

/* The 512 bytes of blocks ctr .. ctr + 7, XORed into s (or written
   bare when s is NULL) at d.  Words 4q .. 4q + 3 of the eight blocks
   are transposed in registers: after the unpacks, the low 128 bits of
   u[l] are words 4q .. 4q + 3 of block l and the high 128 bits those of
   block l + 4. */
__attribute__((target("avx2")))
static void blocks8(const uint32_t in[16], uint32_t ctr, const unsigned char *s, unsigned char *d)
{
  const __m256i r16 = _mm256_setr_epi8(2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
                                       2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13);
  const __m256i r8 = _mm256_setr_epi8(3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
                                      3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14);
  __m256i x[16];
  for (int i = 0; i < 16; i++) x[i] = _mm256_set1_epi32((int)in[i]);
  const __m256i ctrs =
    _mm256_add_epi32(_mm256_set1_epi32((int)ctr), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  x[12] = ctrs;
  for (int r = 0; r < 10; r++) {
    QR8(x[0], x[4], x[8], x[12]);
    QR8(x[1], x[5], x[9], x[13]);
    QR8(x[2], x[6], x[10], x[14]);
    QR8(x[3], x[7], x[11], x[15]);
    QR8(x[0], x[5], x[10], x[15]);
    QR8(x[1], x[6], x[11], x[12]);
    QR8(x[2], x[7], x[8], x[13]);
    QR8(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; i++)
    x[i] = _mm256_add_epi32(x[i], i == 12 ? ctrs : _mm256_set1_epi32((int)in[i]));
  for (int q = 0; q < 4; q++) {
    __m256i t0 = _mm256_unpacklo_epi32(x[4 * q], x[4 * q + 1]);
    __m256i t1 = _mm256_unpackhi_epi32(x[4 * q], x[4 * q + 1]);
    __m256i t2 = _mm256_unpacklo_epi32(x[4 * q + 2], x[4 * q + 3]);
    __m256i t3 = _mm256_unpackhi_epi32(x[4 * q + 2], x[4 * q + 3]);
    __m256i u[4] = { _mm256_unpacklo_epi64(t0, t2), _mm256_unpackhi_epi64(t0, t2),
                     _mm256_unpacklo_epi64(t1, t3), _mm256_unpackhi_epi64(t1, t3) };
    for (int l = 0; l < 4; l++) {
      __m128i lo = _mm256_castsi256_si128(u[l]), hi = _mm256_extracti128_si256(u[l], 1);
      size_t at_lo = 64 * (size_t)l + 16 * (size_t)q, at_hi = at_lo + 256;
      if (s != NULL) {
        lo = _mm_xor_si128(lo, _mm_loadu_si128((const __m128i *)(s + at_lo)));
        hi = _mm_xor_si128(hi, _mm_loadu_si128((const __m128i *)(s + at_hi)));
      }
      _mm_storeu_si128((__m128i *)(d + at_lo), lo);
      _mm_storeu_si128((__m128i *)(d + at_hi), hi);
    }
  }
}

__attribute__((target("avx2")))
static void stream_avx2(const uint32_t in[16], uint32_t ctr, const unsigned char *s,
                        unsigned char *d, size_t n)
{
  size_t off = 0;
  for (; n - off >= 512; off += 512, ctr += 8) blocks8(in, ctr, s == NULL ? NULL : s + off, d + off);
  stream_portable(in, ctr, s == NULL ? NULL : s + off, d + off, n - off);
}
#endif

static void (*stream)(const uint32_t in[16], uint32_t ctr, const unsigned char *s,
                      unsigned char *d, size_t n) = stream_portable;

#ifdef PSP_AVX2
__attribute__((constructor))
static void select_core(void)
{
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) stream = stream_avx2;
}
#endif

/* dst[i] = src[i] ^ keystream[i] for i < length dst, block counter
   starting at [counter] (mod 2^32); [src] may be [dst]. */
value psp_chacha20_xor(value key, value nonce, value counter, value src, value dst)
{
  uint32_t in[16];
  setup(in, Bytes_val(key), Bytes_val(nonce));
  stream(in, (uint32_t)Long_val(counter), Bytes_val(src), Bytes_val(dst),
         caml_string_length(dst));
  return Val_unit;
}

/* dst = the first (length dst) keystream bytes from block [counter]
   on, written directly. */
value psp_chacha20_keystream(value key, value nonce, value counter, value dst)
{
  uint32_t in[16];
  setup(in, Bytes_val(key), Bytes_val(nonce));
  stream(in, (uint32_t)Long_val(counter), NULL, Bytes_val(dst), caml_string_length(dst));
  return Val_unit;
}

/* The two entry points above on the portable core. */
value psp_chacha20_xor_portable(value key, value nonce, value counter, value src, value dst)
{
  uint32_t in[16];
  setup(in, Bytes_val(key), Bytes_val(nonce));
  stream_portable(in, (uint32_t)Long_val(counter), Bytes_val(src), Bytes_val(dst),
                  caml_string_length(dst));
  return Val_unit;
}

value psp_chacha20_keystream_portable(value key, value nonce, value counter, value dst)
{
  uint32_t in[16];
  setup(in, Bytes_val(key), Bytes_val(nonce));
  stream_portable(in, (uint32_t)Long_val(counter), NULL, Bytes_val(dst),
                  caml_string_length(dst));
  return Val_unit;
}

/* whether the dispatched core is the AVX2 one */
value psp_chacha20_hardware(value unit)
{
  (void)unit;
  return Val_bool(stream != stream_portable);
}
