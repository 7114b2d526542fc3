// Packed register-tiled single-precision GEMM micro-kernel.
//
// This is the one matrix-multiply engine in the repo: the three
// `ops::matmul*` entries and the Dense/Conv2D layers all funnel into
// `gemm()` below. The design follows the classic BLIS decomposition,
// shrunk to the model-zoo problem sizes (m, n, k ≤ a few hundred):
//
//  * op(A) is packed once per call into MR-row panels, op(B) into
//    NR-column panels; transposition is absorbed by the packers, so the
//    micro-kernel only ever sees contiguous, zero-padded tiles.
//  * The micro-kernel keeps an MR×NR (4×16) block of C in registers and
//    runs a branch-free FMA loop over k — with `-O3 -march=native` the
//    compiler lowers it to broadcast/load/FMA vector code.
//  * Edge tiles are packed with explicit zero padding and written back
//    through bounds-checked scalar loops, so no shape is special-cased
//    inside the hot loop.
//
// Accumulation policy (load-bearing for test tolerances): all products
// are accumulated in float32, in k-order within a tile. The seed kernels
// disagreed with each other (`matmul` accumulated in float while
// `matmul_transposed_b` accumulated in double); the unified policy is
// fp32 everywhere, which bounds the error of a length-k dot product by
// ~k·eps relative to the double-precision reference (see
// tests/test_gemm.cpp for the derived tolerance).
#pragma once

#include <cstddef>
#include <vector>

#include "src/tensor/tensor.hpp"

namespace fedcav::ops {

enum class Trans : bool { kNo = false, kYes = true };

/// Register-tile footprint of the micro-kernel. 4 rows × 16 columns of
/// float32 C accumulators = 8 AVX2 vectors, leaving registers for the A
/// broadcast and two B loads.
inline constexpr std::size_t kGemmMr = 4;
inline constexpr std::size_t kGemmNr = 16;

/// op(A) packed into kGemmMr-row panels (k-major within a panel), zero
/// padded to a multiple of kGemmMr rows. Build once with pack_a() and
/// reuse across gemm_prepacked() calls whose A operand is unchanged —
/// Conv2D does this across the per-image im2col loop, since the weight
/// matrix is invariant within a batch.
struct PackedA {
  std::vector<float> data;
  std::size_t m = 0;  // logical rows of op(A)
  std::size_t k = 0;  // logical cols of op(A)
};

/// Pack op(A) where A is a row-major m×k (ta == kNo) or k×m (ta == kYes)
/// matrix with leading dimension `lda`.
PackedA pack_a(Trans ta, std::size_t m, std::size_t k, const float* a, std::size_t lda);

/// Same, packing into an existing PackedA whose buffer is reused when
/// large enough — the allocation-free path for per-step repacking (the
/// weight matrix changes every optimizer step, but its packed footprint
/// does not).
void pack_a_into(Trans ta, std::size_t m, std::size_t k, const float* a,
                 std::size_t lda, PackedA& out);

/// C = op(A)·op(B) + beta·C over raw row-major buffers.
/// op(A) is m×k, op(B) is k×n, C is m×n with leading dimension `ldc`.
/// beta is either 0 (overwrite C) or an arbitrary scale on the existing
/// contents (1 accumulates, as in gradient buffers).
void gemm(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k,
          const float* a, std::size_t lda, const float* b, std::size_t ldb,
          float beta, float* c, std::size_t ldc);

/// Same, with op(A) already packed.
void gemm_prepacked(const PackedA& a, Trans tb, std::size_t n, const float* b,
                    std::size_t ldb, float beta, float* c, std::size_t ldc);

/// Hardware lane width the micro-kernel currently runs at: 16 (one
/// 64-byte vector per accumulator row) or 8 (two 32-byte vectors), both
/// bit-identical per lane; 1 on the portable scalar fallback. Selected
/// once at startup from CPU capability (FEDCAV_SIMD=8|16 overrides).
std::size_t simd_width();

/// Test hook: force the micro-kernel lane width (8 or 16); 0 restores
/// the startup selection. Gemm.ForcedLaneWidthsAreBitIdentical
/// (tests/test_gemm.cpp) asserts the two widths produce bit-identical
/// results.
void force_simd_width(std::size_t lanes);

/// Tensor-level entry with shape validation: C = op(A)·op(B) + beta·C.
/// Shapes: op(A) m×k, op(B) k×n, C preallocated m×n.
void gemm(Trans ta, Trans tb, const Tensor& a, const Tensor& b, Tensor& c,
          float beta = 0.0f);

}  // namespace fedcav::ops
