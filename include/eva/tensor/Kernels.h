//===- eva/tensor/Kernels.h - Homomorphic tensor kernels --------*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library of vectorized tensor kernels the DNN frontend lowers to
/// (Section 7.2): each kernel emits plain EVA instructions (rotations,
/// plaintext-mask multiplies, additions) over a single ciphertext holding a
/// CHW-flattened tensor — the CHW data layout the paper's evaluation uses
/// for both CHET and EVA. Kernels tag the nodes they emit with a kernel id,
/// which the CHET-style bulk-synchronous executor uses as barrier
/// boundaries.
///
/// Layout: pixel (c, y, x) of a tensor with logical dims (C, H, W) lives at
/// slot c*GridH*GridW + y*StrideY*GridW + x*StrideX. Strided convolutions
/// and pools leave values in place on the original grid and dilate the
/// strides (CHET's strided layouts); masks carry the weights and zero out
/// the garbage slots in between.
///
//===----------------------------------------------------------------------===//

#ifndef EVA_TENSOR_KERNELS_H
#define EVA_TENSOR_KERNELS_H

#include "eva/frontend/Expr.h"
#include "eva/tensor/Tensor.h"

#include <map>

namespace eva {

struct CipherLayout {
  size_t C = 0, H = 0, W = 0;      ///< logical tensor dims
  size_t GridH = 0, GridW = 0;     ///< physical grid per channel
  size_t StrideY = 1, StrideX = 1; ///< grid steps between logical pixels
  /// 0, or a power of two P such that every slot k of the vector holds
  /// slot k mod P: the replicated output of matVecHybrid, whose elements
  /// m..P-1 are zero. Elementwise kernels keep it; kernels that move data
  /// between slots reset it.
  size_t Period = 0;

  size_t slotOf(size_t Ch, size_t Y, size_t X) const {
    return Ch * GridH * GridW + Y * StrideY * GridW + X * StrideX;
  }
  size_t channelStride() const { return GridH * GridW; }
  size_t slotExtent() const { return C * GridH * GridW; }
  size_t logicalSize() const { return C * H * W; }

  static CipherLayout forImage(size_t C, size_t H, size_t W) {
    CipherLayout L;
    L.C = C;
    L.H = L.GridH = H;
    L.W = L.GridW = W;
    return L;
  }
};

/// Scale configuration shared by all kernels (the Table 4 "input scales";
/// the Vector default follows the LeNet-5-large row — with fan-in-scaled
/// random weights the 2^-15 mask quantization of the smaller setting
/// dominates the score gaps, see EXPERIMENTS.md).
struct TensorScales {
  double Cipher = 25; ///< encrypted image
  double Vector = 20; ///< weight/mask vectors
  double Scalar = 10; ///< scalar constants
  double Output = 30; ///< desired output scale
};

/// A tensor value under construction: expression plus layout.
struct CipherTensor {
  Expr Value;
  CipherLayout Layout;
};

/// Emits one convolution kernel. Weights: (Co, Ci, Kh, Kw); optional Bias:
/// (Co). Rotations are cached by offset, so the rotation count is
/// O((Ci + Co) * Kh * Kw) rather than O(Ci * Co * Kh * Kw).
CipherTensor conv2d(ProgramBuilder &B, const CipherTensor &In,
                    const Tensor &Weights, const Tensor &Bias, size_t Stride,
                    bool SamePad, const TensorScales &Scales);

/// KxK average pooling with stride (valid windows only).
CipherTensor avgPool2d(ProgramBuilder &B, const CipherTensor &In, size_t K,
                       size_t Stride, const TensorScales &Scales);

/// Elementwise x^2 (the FHE-compatible activation the paper's networks
/// use in place of ReLU).
CipherTensor squareActivation(ProgramBuilder &B, const CipherTensor &In);

/// Elementwise a*x^2 + b*x polynomial activation.
CipherTensor polyActivation(ProgramBuilder &B, const CipherTensor &In,
                            double A2, double A1, const TensorScales &Scales);

/// Rotation-tree reduction: returns an expression whose every slot k holds
/// the cyclic sum of \p Span consecutive slots of \p V starting at k
/// (Span is rounded up to a power of two; Span >= vec_size sums the whole
/// vector into every slot). Emits log2(Span) rotations, all by powers of
/// two — the log-depth tree the SUM lowering and the dense-layer kernels
/// share, using only the program-wide power-of-two Galois keys.
Expr rotationTreeSum(ProgramBuilder &B, Expr V, size_t Span);

/// Baby-step–giant-step diagonal matvec y = Wx + b over a *dense* layout
/// (logical element j at slot j): the matrix is consumed as cyclic
/// diagonals, the O(sqrt) baby rotations all rotate the input ciphertext
/// itself — one hoist batch sharing a single key-switch decomposition —
/// and only the O(sqrt) giant steps pay their own decompositions. Compare
/// the per-output mask-and-reduce path: O(Out * log vec_size) rotations,
/// each with its own decomposition. Weights: (Out, In); In must equal the
/// layout's logical size. Output layout is dense.
CipherTensor matVecBsgs(ProgramBuilder &B, const CipherTensor &In,
                        const Tensor &Weights, const Tensor &Bias,
                        const TensorScales &Scales);

/// The GAZELLE hybrid matvec (Juvekar et al.; the SoK's
/// general_mvp_from_diagonals) for a dense input that repeats with period
/// n: n == vec_size, or the replicated output of an earlier hybrid. With m
/// outputs padded by zero rows to mp (the next power of two, which must
/// divide n), it multiplies the mp extended diagonals
///   diag_i[k] = W[k mod mp][(k+i) mod n]
/// by the mp baby rotations of x — one hoist batch — and then sums with a
/// log2(n/mp)-step rotation tree, which leaves y[k mod mp] in every slot k.
/// That is mp plaintext multiplies and log2(n/mp) + 1 key-switch
/// decompositions where matVecBsgs walks all vec_size cyclic diagonals.
/// The bias is tiled with period mp, so the output layout is dense with
/// Period = mp and a following layer can take the hybrid again.
CipherTensor matVecHybrid(ProgramBuilder &B, const CipherTensor &In,
                          const Tensor &Weights, const Tensor &Bias,
                          const TensorScales &Scales);

/// The period matVecHybrid would run over for \p L with \p NOut outputs
/// in a \p VecSize-slot vector, or 0 when the hybrid does not apply (the
/// layout is not dense and periodic, or the padded row count does not
/// divide the period).
size_t hybridPeriod(const CipherLayout &L, size_t NOut, size_t VecSize);

/// Dense layer y = Wx + b; Weights: (Out, In) over the flattened logical
/// CHW input. Output layout is dense: element j at slot j. Dispatch, in
/// order:
///  1. matVecHybrid, when hybridPeriod() is nonzero: the input is dense and
///     periodic (full width, or an earlier hybrid's output);
///  2. matVecBsgs, for every other dense input;
///  3. the per-output mask + rotation-tree reduction, for strided layouts.
CipherTensor fullyConnected(ProgramBuilder &B, const CipherTensor &In,
                            const Tensor &Weights, const Tensor &Bias,
                            const TensorScales &Scales);

/// Concatenates B2 after B1 along channels (same grid and strides).
CipherTensor concatChannels(ProgramBuilder &B, const CipherTensor &A,
                            const CipherTensor &B2,
                            const TensorScales &Scales);

} // namespace eva

#endif // EVA_TENSOR_KERNELS_H
