// GF(2^8) arithmetic for the Reed-Solomon reliability policy.
//
// The field is GF(256) with the usual AES-adjacent reduction polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11D). mul/inv go through a precomputed
// 64 KB full product table. The coding inner loop, muladd, runs on every
// byte the root sends (the root encodes every stripe) and on every byte a
// receiver reconstructs, so it is vectorised: per coefficient, two
// 16-entry tables hold the products of the low and high nibble, and AVX2
// vpshufb looks up 32 bytes at a time (the split-table technique of
// GF-Complete and ISA-L). The kernel is chosen once at first use; hosts
// without AVX2, and the last n % 32 bytes, use the byte-table loop.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rdmc::reliability::gf256 {

std::uint8_t mul(std::uint8_t a, std::uint8_t b);

/// Multiplicative inverse; a must be non-zero.
std::uint8_t inv(std::uint8_t a);

/// y[i] ^= c * x[i] for i in [0, n) — the coding inner loop.
void muladd(std::uint8_t* y, const std::uint8_t* x, std::uint8_t c,
            std::size_t n);

}  // namespace rdmc::reliability::gf256
