#include "reliability/gf256.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define RDMC_GF256_X86 1
#endif

namespace rdmc::reliability::gf256 {

namespace {

struct Tables {
  std::uint8_t exp[512];
  std::uint8_t log[256];
  std::uint8_t mul[256 * 256];
  /// Split-nibble product tables: c * x = lo[c][x & 15] ^ hi[c][x >> 4].
  alignas(16) std::uint8_t lo[256][16];
  alignas(16) std::uint8_t hi[256][16];

  Tables() {
    // Generator 2 is primitive for 0x11D.
    std::uint16_t x = 1;
    for (int i = 0; i < 255; ++i) {
      exp[i] = static_cast<std::uint8_t>(x);
      log[x] = static_cast<std::uint8_t>(i);
      x <<= 1;
      if (x & 0x100) x ^= 0x11D;
    }
    for (int i = 255; i < 512; ++i) exp[i] = exp[i - 255];
    log[0] = 0;  // never consulted for zero operands
    for (int a = 0; a < 256; ++a) {
      for (int b = 0; b < 256; ++b) {
        mul[(a << 8) | b] =
            (a == 0 || b == 0) ? 0 : exp[log[a] + log[b]];
      }
    }
    for (int c = 0; c < 256; ++c) {
      for (int v = 0; v < 16; ++v) {
        lo[c][v] = mul[(c << 8) | v];
        hi[c][v] = mul[(c << 8) | (v << 4)];
      }
    }
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

using MuladdFn = void (*)(std::uint8_t*, const std::uint8_t*, std::uint8_t,
                          std::size_t);

/// The byte-table loop: the tail of the vector kernel and the whole job on
/// hosts without AVX2.
void muladd_scalar(std::uint8_t* y, const std::uint8_t* x, std::uint8_t c,
                   std::size_t n) {
  const std::uint8_t* row = &tables().mul[static_cast<std::size_t>(c) << 8];
  for (std::size_t i = 0; i < n; ++i) y[i] ^= row[x[i]];
}

#ifdef RDMC_GF256_X86
__attribute__((target("avx2"))) inline __m256i load32(const std::uint8_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

__attribute__((target("avx2"))) inline void store32(std::uint8_t* p,
                                                    __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

/// c * x for 32 bytes: split each byte into nibbles and look both up in the
/// coefficient's 16-entry product tables with vpshufb (the GF-Complete /
/// ISA-L split-table technique).
__attribute__((target("avx2"))) inline __m256i mul32(const std::uint8_t* x,
                                                     __m256i lo, __m256i hi) {
  const __m256i nibble = _mm256_set1_epi8(0x0F);
  const __m256i v = load32(x);
  return _mm256_xor_si256(
      _mm256_shuffle_epi8(lo, _mm256_and_si256(v, nibble)),
      _mm256_shuffle_epi8(hi,
                          _mm256_and_si256(_mm256_srli_epi64(v, 4), nibble)));
}

__attribute__((target("avx2"))) void muladd_avx2(std::uint8_t* y,
                                                 const std::uint8_t* x,
                                                 std::uint8_t c,
                                                 std::size_t n) {
  const Tables& t = tables();
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo[c])));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi[c])));
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32)
    store32(y + i, _mm256_xor_si256(load32(y + i), mul32(x + i, lo, hi)));
  muladd_scalar(y + i, x + i, c, n - i);
}
#endif

MuladdFn pick_muladd() {
#ifdef RDMC_GF256_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return muladd_avx2;
#endif
  return muladd_scalar;
}

}  // namespace

std::uint8_t mul(std::uint8_t a, std::uint8_t b) {
  return tables().mul[(static_cast<std::size_t>(a) << 8) | b];
}

std::uint8_t inv(std::uint8_t a) {
  const Tables& t = tables();
  return t.exp[255 - t.log[a]];
}

void muladd(std::uint8_t* y, const std::uint8_t* x, std::uint8_t c,
            std::size_t n) {
  static const MuladdFn kernel = pick_muladd();
  if (c == 0) return;
  kernel(y, x, c, n);
}

}  // namespace rdmc::reliability::gf256
