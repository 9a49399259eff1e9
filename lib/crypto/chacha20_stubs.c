/* ChaCha20 (RFC 8439) keystream, four blocks at a time.

   One portable core written with GCC/Clang vector extensions: lane l of
   the sixteen 4-lane state vectors is the block with counter ctr + l
   (mod 2^32), so a call to [blocks4] yields 256 keystream bytes.  With
   no -march flag this compiles to baseline SSE2 on x86-64 (NEON on
   arm64), and there is no runtime CPU dispatch: every machine runs this
   one code path.

   Key, nonce and keystream words are read and written with explicit
   little-endian byte order, so the output does not depend on the host's
   endianness.  Trip counts depend only on the public message length;
   no branch and no memory index depends on key, nonce or data.

   Boundary: the OCaml side ([chacha20.ml]) checks every size before
   the call (32-byte key, 12-byte nonce, equal src/dst lengths), and the
   externals are [@@noalloc]: these functions never allocate, raise,
   call back into OCaml or release the runtime lock. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

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

/* The initial state of a block, counter word (12) left for [blocks4]. */
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

/* dst[i] = src[i] ^ keystream[i] for i < length dst, block counter
   starting at [counter] (mod 2^32).  [src] may be [dst]: each 16-byte
   chunk is loaded before it is stored. */
value psp_chacha20_xor(value key, value nonce, value counter, value src, value dst)
{
  uint32_t in[16];
  unsigned char ks[256];
  const unsigned char *s = Bytes_val(src);
  unsigned char *d = Bytes_val(dst);
  size_t n = caml_string_length(dst), off = 0;
  uint32_t ctr = (uint32_t)Long_val(counter);
  setup(in, Bytes_val(key), Bytes_val(nonce));
  for (; n - off >= 256; off += 256, ctr += 4) {
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
    for (size_t j = 0; off + j < n; j++) d[off + j] = s[off + j] ^ ks[j];
  }
  return Val_unit;
}

/* dst = the first (length dst) keystream bytes from block [counter]
   on, written directly. */
value psp_chacha20_keystream(value key, value nonce, value counter, value dst)
{
  uint32_t in[16];
  unsigned char ks[256];
  unsigned char *d = Bytes_val(dst);
  size_t n = caml_string_length(dst), off = 0;
  uint32_t ctr = (uint32_t)Long_val(counter);
  setup(in, Bytes_val(key), Bytes_val(nonce));
  for (; n - off >= 256; off += 256, ctr += 4) blocks4(in, ctr, d + off);
  if (off < n) {
    blocks4(in, ctr, ks);
    memcpy(d + off, ks, n - off);
  }
  return Val_unit;
}
