// Portable 4-wide double/int lanes for the router's relaxation filter.
//
// The wrapper exposes exactly the operations the filter needs — unaligned
// loads, broadcast, lane-wise IEEE add and >=/< comparisons reduced to a
// 4-bit mask — over GCC/Clang vector extensions, with a scalar fallback
// that is the definitional reference. Per-lane IEEE arithmetic is
// deterministic, and the filter only COMPARES the computed floors (it never
// accumulates them into a running value), so the vector and scalar paths
// are bit-identical by construction: a survivor mask computed 4-wide equals
// the one computed element by element.
//
// The 4-wide double type is a pair of 16-byte vectors (baseline SSE2 /
// NEON registers), so no build flag or ABI concern arises on either x86-64
// or aarch64; with AVX enabled the compiler fuses the pairs.
//
// Build knobs:
//  * VINOC_SIMD_FORCE_SCALAR — compile the scalar fallback only. One CI
//    sanitizer matrix entry builds with this, and its test_reference run
//    checks the scalar filter against the independent Algorithm 1 oracle
//    (tests/reference/), which has no filter at all.
//  * Non-GNU-compatible compilers fall back to scalar automatically.
//
// There is no runtime switch: a build routes with exactly one of the two
// paths.
#pragma once

#include <cstring>

#if !defined(VINOC_SIMD_FORCE_SCALAR) && (defined(__GNUC__) || defined(__clang__))
#define VINOC_SIMD_VECTOR_EXT 1
#endif

namespace vinoc::core::simd {

/// Number of elements one filter step covers.
inline constexpr int kWidth = 4;

#if defined(VINOC_SIMD_VECTOR_EXT)

typedef double F64x2 __attribute__((vector_size(16), __may_alias__));
typedef long long I64x2 __attribute__((vector_size(16), __may_alias__));
typedef int I32x4 __attribute__((vector_size(16), __may_alias__));

/// Four doubles as a pair of native 16-byte vectors.
struct F64x4 {
  F64x2 lo, hi;
};

/// Unaligned loads (memcpy compiles to plain vector moves; the source
/// arrays carry no 16-byte alignment guarantee).
inline F64x4 load4(const double* p) {
  F64x4 v;
  std::memcpy(&v.lo, p, sizeof v.lo);
  std::memcpy(&v.hi, p + 2, sizeof v.hi);
  return v;
}
inline I32x4 load4i(const int* p) {
  I32x4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline F64x4 splat4(double x) { return {F64x2{x, x}, F64x2{x, x}}; }

inline F64x4 operator+(F64x4 a, F64x4 b) {
  return {a.lo + b.lo, a.hi + b.hi};
}

/// Lane-wise a >= b folded to a 4-bit mask, bit i = lane i.
inline unsigned ge_mask(F64x4 a, F64x4 b) {
  const I64x2 lo = a.lo >= b.lo;
  const I64x2 hi = a.hi >= b.hi;
  return (lo[0] < 0 ? 1u : 0u) | (lo[1] < 0 ? 2u : 0u) |
         (hi[0] < 0 ? 4u : 0u) | (hi[1] < 0 ? 8u : 0u);
}

/// Lane-wise v < 0 folded to a 4-bit mask, bit i = lane i.
inline unsigned lt0_mask(I32x4 v) {
  return (v[0] < 0 ? 1u : 0u) | (v[1] < 0 ? 2u : 0u) | (v[2] < 0 ? 4u : 0u) |
         (v[3] < 0 ? 8u : 0u);
}

#endif  // VINOC_SIMD_VECTOR_EXT

}  // namespace vinoc::core::simd
