//===- Kernels.cpp - Homomorphic tensor kernels --------------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/tensor/Kernels.h"

#include "eva/support/BitOps.h"

#include <algorithm>
#include <map>

using namespace eva;

namespace {

/// Rotation cache: one ROTATELEFT node per distinct offset per kernel.
class RotationCache {
public:
  RotationCache(ProgramBuilder &B, Expr Base) : B(B), Base(Base) {}

  Expr get(int64_t Offset) {
    int64_t M = static_cast<int64_t>(B.vecSize());
    int64_t Norm = ((Offset % M) + M) % M;
    if (Norm == 0)
      return Base;
    auto It = Cache.find(Norm);
    if (It != Cache.end())
      return It->second;
    Expr R = Base << static_cast<int32_t>(Norm);
    Cache.emplace(Norm, R);
    return R;
  }

private:
  ProgramBuilder &B;
  Expr Base;
  std::map<int64_t, Expr> Cache;
};

/// Accumulates `acc = acc + term` with empty-initial handling.
void accumulate(Expr &Acc, Expr Term) { Acc = Acc.valid() ? Acc + Term : Term; }

bool allZero(const std::vector<double> &V) {
  for (double X : V)
    if (X != 0.0)
      return false;
  return true;
}

/// Logical element (c, y, x) at slot slotOf(c, y, x) with no gaps.
bool isDense(const CipherLayout &L) {
  return L.GridH == L.H && L.GridW == L.W && L.StrideY == 1 && L.StrideX == 1;
}

/// The hybrid's row count: NOut padded with zero rows to a power of two.
size_t paddedRows(size_t NOut) {
  size_t MP = 1;
  while (MP < NOut)
    MP <<= 1;
  return MP;
}

/// A dense layer's output: element j at slot j (and, with a nonzero
/// Period, at every slot j + t * Period).
CipherLayout denseVector(size_t N, size_t Period = 0) {
  CipherLayout Out;
  Out.C = N;
  Out.H = Out.W = 1;
  Out.GridH = Out.GridW = 1;
  Out.Period = Period;
  return Out;
}

/// Acc + bias, the bias of output j placed at slot j — repeated every
/// Period slots when Period is nonzero. No-op for an empty bias.
Expr addBias(ProgramBuilder &B, Expr Acc, const Tensor &Bias, size_t Period,
             const TensorScales &Scales) {
  if (Bias.size() == 0)
    return Acc;
  size_t M = B.vecSize();
  size_t Tile = Period ? Period : M;
  std::vector<double> BiasVec(M, 0.0);
  for (size_t K = 0; K < M; ++K)
    if (K % Tile < Bias.size())
      BiasVec[K] = Bias.at(K % Tile);
  return Acc + B.constantVector(BiasVec, Scales.Vector);
}

} // namespace

CipherTensor eva::conv2d(ProgramBuilder &B, const CipherTensor &In,
                         const Tensor &Weights, const Tensor &Bias,
                         size_t Stride, bool SamePad,
                         const TensorScales &Scales) {
  return B.inKernel([&]() -> CipherTensor {
    const CipherLayout &L = In.Layout;
    size_t Ci = Weights.dims()[1], Co = Weights.dims()[0];
    size_t Kh = Weights.dims()[2], Kw = Weights.dims()[3];
    assert(Ci == L.C && "input channel mismatch");
    size_t PadY = SamePad ? Kh / 2 : 0;
    size_t PadX = SamePad ? Kw / 2 : 0;

    CipherLayout Out = L;
    Out.Period = 0;
    Out.C = Co;
    Out.H = SamePad ? (L.H + Stride - 1) / Stride : (L.H - Kh) / Stride + 1;
    Out.W = SamePad ? (L.W + Stride - 1) / Stride : (L.W - Kw) / Stride + 1;
    Out.StrideY = L.StrideY * Stride;
    Out.StrideX = L.StrideX * Stride;
    assert(Out.slotExtent() <= B.vecSize() &&
           "output tensor does not fit the ciphertext");

    // Group taps by rotation offset: input slot minus output slot is
    // independent of the output position, so each (ci - co, ky, kx) class
    // shares one rotation, and all its weights merge into one mask. The
    // offset is kept as a (channel shift, spatial shift) pair: rotations
    // compose, so realizing them in two levels shares Galois keys across the
    // product of the two sets — O(Ci + Co + Kh*Kw) keys instead of
    // O((Ci + Co) * Kh * Kw).
    size_t M = B.vecSize();
    int64_t CS = static_cast<int64_t>(L.channelStride());
    std::map<std::pair<int64_t, int64_t>, std::vector<double>> Masks;
    for (size_t O = 0; O < Co; ++O) {
      for (size_t I = 0; I < Ci; ++I) {
        for (size_t Ky = 0; Ky < Kh; ++Ky) {
          for (size_t Kx = 0; Kx < Kw; ++Kx) {
            double Wt = Weights.at4(O, I, Ky, Kx);
            if (Wt == 0.0)
              continue;
            int64_t ChanShift =
                (static_cast<int64_t>(I) - static_cast<int64_t>(O)) * CS;
            int64_t SpatialShift =
                (static_cast<int64_t>(Ky) - static_cast<int64_t>(PadY)) *
                    static_cast<int64_t>(L.StrideY * L.GridW) +
                (static_cast<int64_t>(Kx) - static_cast<int64_t>(PadX)) *
                    static_cast<int64_t>(L.StrideX);
            std::vector<double> &Mask = Masks[{ChanShift, SpatialShift}];
            if (Mask.empty())
              Mask.assign(M, 0.0);
            for (size_t Oy = 0; Oy < Out.H; ++Oy) {
              for (size_t Ox = 0; Ox < Out.W; ++Ox) {
                int64_t SrcY = static_cast<int64_t>(Oy * Stride + Ky) -
                               static_cast<int64_t>(PadY);
                int64_t SrcX = static_cast<int64_t>(Ox * Stride + Kx) -
                               static_cast<int64_t>(PadX);
                if (SrcY < 0 || SrcX < 0 ||
                    SrcY >= static_cast<int64_t>(L.H) ||
                    SrcX >= static_cast<int64_t>(L.W))
                  continue;
                Mask[Out.slotOf(O, Oy, Ox)] += Wt;
              }
            }
          }
        }
      }
    }

    RotationCache ChanRot(B, In.Value);
    std::map<int64_t, RotationCache> SpatialRot;
    Expr Acc;
    for (auto &[Shifts, Mask] : Masks) {
      if (allZero(Mask))
        continue;
      auto [ChanShift, SpatialShift] = Shifts;
      auto It = SpatialRot.find(ChanShift);
      if (It == SpatialRot.end())
        It = SpatialRot.emplace(ChanShift,
                                RotationCache(B, ChanRot.get(ChanShift)))
                 .first;
      Expr Term = It->second.get(SpatialShift) *
                  B.constantVector(Mask, Scales.Vector);
      accumulate(Acc, Term);
    }
    assert(Acc.valid() && "convolution with all-zero weights");

    if (Bias.size() > 0) {
      std::vector<double> BiasVec(M, 0.0);
      for (size_t O = 0; O < Co; ++O)
        for (size_t Oy = 0; Oy < Out.H; ++Oy)
          for (size_t Ox = 0; Ox < Out.W; ++Ox)
            BiasVec[Out.slotOf(O, Oy, Ox)] = Bias.at(O);
      Acc = Acc + B.constantVector(BiasVec, Scales.Vector);
    }
    return CipherTensor{Acc, Out};
  });
}

CipherTensor eva::avgPool2d(ProgramBuilder &B, const CipherTensor &In,
                            size_t K, size_t Stride,
                            const TensorScales &Scales) {
  return B.inKernel([&]() -> CipherTensor {
    const CipherLayout &L = In.Layout;
    CipherLayout Out = L;
    Out.Period = 0;
    Out.H = (L.H - K) / Stride + 1;
    Out.W = (L.W - K) / Stride + 1;
    Out.StrideY = L.StrideY * Stride;
    Out.StrideX = L.StrideX * Stride;

    // All window taps are valid everywhere (valid pooling), so every tap
    // shares one global mask: sum the rotations first, scale once.
    RotationCache Rot(B, In.Value);
    Expr Acc;
    for (size_t Dy = 0; Dy < K; ++Dy) {
      for (size_t Dx = 0; Dx < K; ++Dx) {
        int64_t Offset =
            static_cast<int64_t>(Dy) *
                static_cast<int64_t>(L.StrideY * L.GridW) +
            static_cast<int64_t>(Dx) * static_cast<int64_t>(L.StrideX);
        accumulate(Acc, Rot.get(Offset));
      }
    }
    std::vector<double> Mask(B.vecSize(), 0.0);
    double Inv = 1.0 / static_cast<double>(K * K);
    for (size_t C = 0; C < Out.C; ++C)
      for (size_t Oy = 0; Oy < Out.H; ++Oy)
        for (size_t Ox = 0; Ox < Out.W; ++Ox)
          Mask[Out.slotOf(C, Oy, Ox)] = Inv;
    Expr Result = Acc * B.constantVector(Mask, Scales.Vector);
    return CipherTensor{Result, Out};
  });
}

CipherTensor eva::squareActivation(ProgramBuilder &B, const CipherTensor &In) {
  return B.inKernel([&]() -> CipherTensor {
    return CipherTensor{In.Value * In.Value, In.Layout};
  });
}

CipherTensor eva::polyActivation(ProgramBuilder &B, const CipherTensor &In,
                                 double A2, double A1,
                                 const TensorScales &Scales) {
  return B.inKernel([&]() -> CipherTensor {
    Expr X2 = In.Value * In.Value;
    Expr R = X2 * B.constant(A2, Scales.Scalar) +
             In.Value * B.constant(A1, Scales.Scalar);
    return CipherTensor{R, In.Layout};
  });
}

Expr eva::rotationTreeSum(ProgramBuilder &B, Expr V, size_t Span) {
  size_t M = B.vecSize();
  Span = std::min(Span, static_cast<size_t>(M));
  Expr T = V;
  for (size_t Step = 1; Step < Span; Step <<= 1)
    T = T + (T << static_cast<int32_t>(Step));
  return T;
}

CipherTensor eva::matVecBsgs(ProgramBuilder &B, const CipherTensor &In,
                             const Tensor &Weights, const Tensor &Bias,
                             const TensorScales &Scales) {
  return B.inKernel([&]() -> CipherTensor {
    const CipherLayout &L = In.Layout;
    size_t NOut = Weights.dims()[0], NIn = Weights.dims()[1];
    assert(isDense(L) && "BSGS matvec needs a dense layout");
    assert(NIn == L.logicalSize() && "dense layer input size mismatch");
    (void)L, (void)NIn; // assert-only in Release
    size_t M = B.vecSize();
    assert(NOut <= M && "too many outputs for the ciphertext");

    // The matrix as cyclic diagonals over the full vector:
    //   y[k] = sum_d diag_d[k] * x[(k+d) mod M],
    //   diag_d[k] = W[k][(k+d) mod M]  (zero-padded outside Out x In).
    // Columns >= NIn carry zero weight, so garbage slots of x never leak.
    auto Diag = [&](size_t D) {
      std::vector<double> V(M, 0.0);
      for (size_t K = 0; K < NOut; ++K) {
        size_t C = (K + D) % M;
        if (C < NIn)
          V[K] = Weights.at2(K, C);
      }
      return V;
    };

    // Baby-step–giant-step split d = GJ + I (BS ~ sqrt(M)): the BS baby
    // rotations all rotate the input ciphertext itself — one hoist batch
    // sharing a single key-switch decomposition at run time — while the
    // giant steps rotate each block's partial sum:
    //   y = sum_j rot_{GJ}( sum_i rot_{-GJ}(diag_{GJ+i}) o rot_i(x) )
    // where the giant-step pre-rotation of the diagonal is free (plaintext).
    size_t BS = 1;
    while (BS * BS < M)
      BS <<= 1;
    RotationCache Rot(B, In.Value);
    Expr Acc;
    for (size_t GJ = 0; GJ < M; GJ += BS) {
      Expr Inner;
      for (size_t I = 0; I < BS && GJ + I < M; ++I) {
        std::vector<double> DV = Diag(GJ + I);
        std::vector<double> Mask(M, 0.0);
        bool Zero = true;
        for (size_t K = 0; K < M; ++K) {
          if (DV[K] == 0.0)
            continue;
          Zero = false;
          Mask[(K + GJ) % M] = DV[K]; // rot_{-GJ}(diag)
        }
        if (Zero)
          continue;
        accumulate(Inner, Rot.get(static_cast<int64_t>(I)) *
                              B.constantVector(Mask, Scales.Vector));
      }
      if (!Inner.valid())
        continue;
      accumulate(Acc, GJ == 0 ? Inner
                              : (Inner << static_cast<int32_t>(GJ)));
    }
    assert(Acc.valid() && "dense layer with all-zero weights");
    return CipherTensor{addBias(B, Acc, Bias, 0, Scales), denseVector(NOut)};
  });
}

CipherTensor eva::matVecHybrid(ProgramBuilder &B, const CipherTensor &In,
                               const Tensor &Weights, const Tensor &Bias,
                               const TensorScales &Scales) {
  return B.inKernel([&]() -> CipherTensor {
    size_t NOut = Weights.dims()[0], NIn = Weights.dims()[1];
    size_t M = B.vecSize();
    size_t N = hybridPeriod(In.Layout, NOut, M);
    assert(N != 0 && "hybrid matvec needs a dense periodic input");
    assert(NIn == In.Layout.logicalSize() && NIn <= N &&
           "dense layer input size mismatch");
    (void)NIn; // assert-only in Release
    size_t MP = paddedRows(NOut);

    // Slot k of rot_i(x) holds x[(k+i) mod N] because x repeats every N
    // slots, so z = sum_i diag_i o rot_i(x) with
    //   diag_i[k] = W[k mod MP][(k+i) mod N]   (zero outside Out x In)
    // holds, in slot k, row k mod MP's products with the columns
    // congruent to k+i, i < MP. Summing z over the N/MP shifts by multiples
    // of MP covers every column once: y[k] = (Wx)[k mod MP].
    RotationCache Rot(B, In.Value);
    Expr Z;
    for (size_t I = 0; I < MP; ++I) {
      std::vector<double> Diag(M, 0.0);
      for (size_t K = 0; K < M; ++K) {
        size_t R = K % MP, C = (K + I) % N;
        if (R < NOut && C < NIn)
          Diag[K] = Weights.at2(R, C);
      }
      if (allZero(Diag))
        continue;
      accumulate(Z, Rot.get(static_cast<int64_t>(I)) *
                        B.constantVector(Diag, Scales.Vector));
    }
    assert(Z.valid() && "dense layer with all-zero weights");
    for (size_t Step = MP; Step < N; Step <<= 1)
      Z = Z + (Z << static_cast<int32_t>(Step));
    return CipherTensor{addBias(B, Z, Bias, MP, Scales),
                        denseVector(NOut, MP)};
  });
}

size_t eva::hybridPeriod(const CipherLayout &L, size_t NOut,
                         size_t VecSize) {
  if (!isDense(L))
    return 0;
  size_t N = L.Period ? L.Period : L.logicalSize() == VecSize ? VecSize : 0;
  size_t MP = paddedRows(NOut);
  return N != 0 && MP <= N && N % MP == 0 ? N : 0;
}

CipherTensor eva::fullyConnected(ProgramBuilder &B, const CipherTensor &In,
                                 const Tensor &Weights, const Tensor &Bias,
                                 const TensorScales &Scales) {
  // Dense periodic inputs take the hybrid (NOut diagonals instead of
  // vec_size); other dense inputs take BSGS: O(sqrt(M)) hoistable rotations
  // instead of the fall-back's O(Out * log M) unshared ones.
  if (hybridPeriod(In.Layout, Weights.dims()[0], B.vecSize()) != 0)
    return matVecHybrid(B, In, Weights, Bias, Scales);
  if (isDense(In.Layout))
    return matVecBsgs(B, In, Weights, Bias, Scales);

  return B.inKernel([&]() -> CipherTensor {
    const CipherLayout &L = In.Layout;
    size_t NOut = Weights.dims()[0], NIn = Weights.dims()[1];
    assert(NIn == L.logicalSize() && "dense layer input size mismatch");
    (void)NIn; // assert-only in Release
    size_t M = B.vecSize();
    assert(NOut <= M && "too many outputs for the ciphertext");

    Expr Acc;
    for (size_t O = 0; O < NOut; ++O) {
      // Weight mask over the (possibly strided) input layout.
      std::vector<double> WMask(M, 0.0);
      size_t Flat = 0;
      for (size_t C = 0; C < L.C; ++C)
        for (size_t Y = 0; Y < L.H; ++Y)
          for (size_t X = 0; X < L.W; ++X)
            WMask[L.slotOf(C, Y, X)] += Weights.at2(O, Flat++);
      if (allZero(WMask))
        continue;
      // Full rotate-and-add tree: every slot ends up holding the complete
      // dot product, so no placement rotation is needed and the only Galois
      // keys are the log2(M) powers of two (shared program-wide).
      Expr T = rotationTreeSum(
          B, In.Value * B.constantVector(WMask, Scales.Vector), M);
      std::vector<double> Sel(M, 0.0);
      Sel[O] = 1.0;
      accumulate(Acc, T * B.constantVector(Sel, Scales.Vector));
    }
    assert(Acc.valid() && "dense layer with all-zero weights");
    return CipherTensor{addBias(B, Acc, Bias, 0, Scales), denseVector(NOut)};
  });
}

CipherTensor eva::concatChannels(ProgramBuilder &B, const CipherTensor &A,
                                 const CipherTensor &B2,
                                 const TensorScales &Scales) {
  return B.inKernel([&]() -> CipherTensor {
    const CipherLayout &LA = A.Layout;
    const CipherLayout &LB = B2.Layout;
    assert(LA.GridH == LB.GridH && LA.GridW == LB.GridW &&
           LA.StrideY == LB.StrideY && LA.StrideX == LB.StrideX &&
           LA.H == LB.H && LA.W == LB.W && "concat layout mismatch");
    size_t M = B.vecSize();
    CipherLayout Out = LA;
    Out.Period = 0;
    Out.C = LA.C + LB.C;
    assert(Out.slotExtent() <= M && "concat result does not fit");

    // Mask both inputs to their valid slots (garbage would otherwise leak
    // into the other's channel range), shift B2 up by A's channels.
    auto ValidMask = [&](const CipherLayout &L) {
      std::vector<double> Mask(M, 0.0);
      for (size_t C = 0; C < L.C; ++C)
        for (size_t Y = 0; Y < L.H; ++Y)
          for (size_t X = 0; X < L.W; ++X)
            Mask[L.slotOf(C, Y, X)] = 1.0;
      return Mask;
    };
    Expr MA = A.Value * B.constantVector(ValidMask(LA), Scales.Vector);
    Expr MB = B2.Value * B.constantVector(ValidMask(LB), Scales.Vector);
    int64_t Shift = static_cast<int64_t>(LA.C * LA.channelStride());
    Expr Shifted = MB >> static_cast<int32_t>(Shift);
    return CipherTensor{MA + Shifted, Out};
  });
}
