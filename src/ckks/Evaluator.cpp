//===- Evaluator.cpp - Homomorphic evaluation --------------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/ckks/Evaluator.h"

#include "eva/ckks/Galois.h"
#include "eva/math/Simd.h"
#include "eva/support/Arena.h"
#include "eva/support/ThreadPool.h"

#include <algorithm>
#include <cmath>
#include <string>

using namespace eva;

// Limb scratch comes from the thread-local free-list arena (Arena.h): limb
// bodies run on whichever pool thread claims the chunk, and after the first
// few operations every acquisition is a free-list hit, so the hot paths
// perform no heap allocation in steady state. Safe because a limb body never
// nests another parallel region on the same thread.

void Evaluator::forEachLimb(size_t Count,
                            const std::function<void(size_t)> &Fn) const {
  // parallelFor itself degenerates to an inline loop for a size-1 pool.
  if (Pool) {
    Pool->parallelFor(Count, Fn);
    return;
  }
  for (size_t I = 0; I < Count; ++I)
    Fn(I);
}

void Evaluator::checkBinaryOperands(const Ciphertext &A,
                                    const Ciphertext &B) const {
  if (A.primeCount() != B.primeCount())
    fatalError("binary operation on ciphertexts at different levels (" +
               std::to_string(A.primeCount()) + " vs " +
               std::to_string(B.primeCount()) +
               " primes); the compiler must insert MODSWITCH/RESCALE");
}

void Evaluator::checkScaleMatch(double SA, double SB) const {
  double Ratio = SA / SB;
  if (Ratio < 1.0 - 1e-9 || Ratio > 1.0 + 1e-9)
    fatalError("additive operation on mismatched scales (" +
               std::to_string(SA) + " vs " + std::to_string(SB) +
               "); the compiler must match scales");
}

Ciphertext Evaluator::negate(const Ciphertext &A) const {
  NumNegates.fetch_add(1, std::memory_order_relaxed);
  Ciphertext Out = A;
  for (RnsPoly &P : Out.Polys)
    for (size_t C = 0; C < P.primeCount(); ++C)
      negatePolyComp(P.Comps[C], P.Comps[C], Ctx->prime(C));
  return Out;
}

Ciphertext Evaluator::addSub(const Ciphertext &A, const Ciphertext &B,
                             bool Subtract) const {
  (Subtract ? NumSubs : NumAdds).fetch_add(1, std::memory_order_relaxed);
  checkBinaryOperands(A, B);
  checkScaleMatch(A.Scale, B.Scale);
  const Ciphertext &Big = A.size() >= B.size() ? A : B;
  const Ciphertext &Small = A.size() >= B.size() ? B : A;
  Ciphertext Out = Big;
  if (Subtract && (&Big == &B)) {
    // Result must be A - B; we copied B, so negate then add A.
    for (RnsPoly &P : Out.Polys)
      for (size_t C = 0; C < P.primeCount(); ++C)
        negatePolyComp(P.Comps[C], P.Comps[C], Ctx->prime(C));
    for (size_t K = 0; K < A.size(); ++K)
      for (size_t C = 0; C < A.primeCount(); ++C)
        addPolyComp(Out.Polys[K].Comps[C], A.Polys[K].Comps[C],
                    Out.Polys[K].Comps[C], Ctx->prime(C));
    Out.Scale = A.Scale;
    return Out;
  }
  for (size_t K = 0; K < Small.size(); ++K) {
    for (size_t C = 0; C < Small.primeCount(); ++C) {
      const Modulus &Q = Ctx->prime(C);
      if (Subtract)
        subPolyComp(Out.Polys[K].Comps[C], Small.Polys[K].Comps[C],
                    Out.Polys[K].Comps[C], Q);
      else
        addPolyComp(Out.Polys[K].Comps[C], Small.Polys[K].Comps[C],
                    Out.Polys[K].Comps[C], Q);
    }
  }
  Out.Scale = A.Scale;
  return Out;
}

Ciphertext Evaluator::add(const Ciphertext &A, const Ciphertext &B) const {
  return addSub(A, B, /*Subtract=*/false);
}

Ciphertext Evaluator::sub(const Ciphertext &A, const Ciphertext &B) const {
  return addSub(A, B, /*Subtract=*/true);
}

Ciphertext Evaluator::addPlain(const Ciphertext &A, const Plaintext &B) const {
  NumAdds.fetch_add(1, std::memory_order_relaxed);
  assert(A.primeCount() == B.primeCount() && "plaintext level mismatch");
  checkScaleMatch(A.Scale, B.Scale);
  Ciphertext Out = A;
  for (size_t C = 0; C < A.primeCount(); ++C)
    addPolyComp(Out.Polys[0].Comps[C], B.Poly.Comps[C], Out.Polys[0].Comps[C],
                Ctx->prime(C));
  return Out;
}

Ciphertext Evaluator::subPlain(const Ciphertext &A, const Plaintext &B) const {
  NumSubs.fetch_add(1, std::memory_order_relaxed);
  assert(A.primeCount() == B.primeCount() && "plaintext level mismatch");
  checkScaleMatch(A.Scale, B.Scale);
  Ciphertext Out = A;
  for (size_t C = 0; C < A.primeCount(); ++C)
    subPolyComp(Out.Polys[0].Comps[C], B.Poly.Comps[C], Out.Polys[0].Comps[C],
                Ctx->prime(C));
  return Out;
}

Ciphertext Evaluator::subFromPlain(const Plaintext &B,
                                   const Ciphertext &A) const {
  Ciphertext Out = negate(A);
  return addPlain(Out, B);
}

Ciphertext Evaluator::multiply(const Ciphertext &A,
                               const Ciphertext &B) const {
  checkBinaryOperands(A, B);
  size_t K = A.size(), L = B.size();
  size_t Count = A.primeCount();
  uint64_t N = Ctx->polyDegree();
  Ciphertext Out;
  Out.Scale = A.Scale * B.Scale;
  Out.Polys.assign(K + L - 1, RnsPoly(N, Count));
  // Limbs are independent: each prime component's convolution can run on a
  // different worker. The scratch vector lives per limb for that reason.
  forEachLimb(Count, [&](size_t C) {
    const Modulus &Q = Ctx->prime(C);
    LimbScratch Tmp = acquireLimbScratch(N);
    for (size_t I = 0; I < K; ++I) {
      for (size_t J = 0; J < L; ++J) {
        mulPolyComp(A.Polys[I].Comps[C], B.Polys[J].Comps[C], Tmp.span(), Q);
        addPolyComp(Out.Polys[I + J].Comps[C], Tmp.span(),
                    Out.Polys[I + J].Comps[C], Q);
      }
    }
  });
  NumMultiplies.fetch_add(1, std::memory_order_relaxed);
  return Out;
}

Ciphertext Evaluator::multiplyPlain(const Ciphertext &A,
                                    const Plaintext &B) const {
  NumPlainMultiplies.fetch_add(1, std::memory_order_relaxed);
  assert(A.primeCount() == B.primeCount() && "plaintext level mismatch");
  Ciphertext Out = A;
  Out.Scale = A.Scale * B.Scale;
  for (RnsPoly &P : Out.Polys)
    for (size_t C = 0; C < P.primeCount(); ++C)
      mulPolyComp(P.Comps[C], B.Poly.Comps[C], P.Comps[C], Ctx->prime(C));
  return Out;
}

std::vector<std::vector<uint64_t>>
Evaluator::keySwitchDecompose(const RnsPoly &Target) const {
  size_t Count = Target.primeCount();
  // Decompose: coefficient-domain copy of each component. One inverse NTT
  // per limb, each independent. This is the shareable half of a key switch:
  // the digits depend only on the input polynomial, not on the key, so a
  // batch of rotations of one ciphertext can reuse them (hoisting).
  // evalint: allow(heap-in-hot-path): the digit vector is the function's
  // result and outlives the call (hoisting reuses it across a rotation
  // batch), so it cannot live in the per-call LimbScratch arena. One
  // allocation per key switch, not per coefficient.
  std::vector<std::vector<uint64_t>> TCoeff(Count);
  forEachLimb(Count, [&](size_t I) {
    TCoeff[I] = Target.Comps[I];
    Ctx->ntt(I).inverse(TCoeff[I]);
  });
  NumDecompositions.fetch_add(1, std::memory_order_relaxed);
  NumNtts.fetch_add(Count, std::memory_order_relaxed);
  return TCoeff;
}

std::array<RnsPoly, 2> Evaluator::keySwitchAccumulate(
    const std::vector<std::vector<uint64_t>> &TCoeff, const RnsPoly &Target,
    std::span<const uint64_t> TargetIndex, const KSwitchKey &Key) const {
  size_t Count = TCoeff.size();
  size_t SpecialIdx = Ctx->specialPrimeIndex();
  uint64_t N = Ctx->polyDegree();
  assert(Count <= Key.Keys.size() && "not enough key components");
  assert(Target.primeCount() == Count && "digits do not match the target");

  // Output prime indices: current data primes plus the special prime.
  // evalint: allow(heap-in-hot-path): two index vectors of size limb-count
  // (tens of entries) and the returned accumulator polynomials; the O(N)
  // inner loops below run entirely on LimbScratch arena buffers.
  std::vector<size_t> OutIdx(Count + 1);
  for (size_t I = 0; I < Count; ++I)
    OutIdx[I] = I;
  OutIdx[Count] = SpecialIdx;

  // The inner-product accumulation is independent per output prime: every R
  // reads all of TCoeff but writes only Acc[*].Comps[R], with its own
  // scratch buffers.
  std::array<RnsPoly, 2> Acc = {RnsPoly(N, Count + 1), RnsPoly(N, Count + 1)};
  forEachLimb(OutIdx.size(), [&](size_t R) {
    size_t PrimeIdx = OutIdx[R];
    const Modulus &Qr = Ctx->prime(PrimeIdx);
    LimbScratch Tmp = acquireLimbScratch(N);
    // 128-bit accumulators split into lo/hi word arrays so the fused
    // multiply-accumulate kernel (scalar or AVX2; identical sums mod 2^128)
    // can run over plain uint64_t lanes.
    LimbScratch Lo0 = acquireLimbScratchZeroed(N);
    LimbScratch Hi0 = acquireLimbScratchZeroed(N);
    LimbScratch Lo1 = acquireLimbScratchZeroed(N);
    LimbScratch Hi1 = acquireLimbScratchZeroed(N);
    for (size_t I = 0; I < Count; ++I) {
      const uint64_t *Digit = Tmp.data();
      if (PrimeIdx != I) {
        reducePolyComp(TCoeff[I], Tmp.span(), Qr);
        Ctx->ntt(PrimeIdx).forward(Tmp.span());
      } else if (TargetIndex.empty()) {
        Digit = Target.Comps[I].data(); // digit I at q_I is the target limb
      } else {
        applyGaloisNttComp(Target.Comps[I], Tmp.span(), TargetIndex);
      }
      const std::vector<uint64_t> &K0 = Key.Keys[I][0].Comps[PrimeIdx];
      const std::vector<uint64_t> &K1 = Key.Keys[I][1].Comps[PrimeIdx];
      simd::fusedMulAcc128(Digit, K0.data(), K1.data(), Lo0.data(),
                           Hi0.data(), Lo1.data(), Hi1.data(), N);
    }
    for (uint64_t X = 0; X < N; ++X) {
      Acc[0].Comps[R][X] =
          Qr.reduce128((Uint128(Hi0[X]) << 64) | Lo0[X]);
      Acc[1].Comps[R][X] =
          Qr.reduce128((Uint128(Hi1[X]) << 64) | Lo1[X]);
    }
  });
  // Every digit went forward once at every output prime but its own.
  NumNtts.fetch_add(Count * Count, std::memory_order_relaxed);

  // Divide by the special prime (rounding) to return to the data chain.
  std::vector<size_t> DownIdx = OutIdx;
  divideRoundDropLast(Acc[0].Comps, DownIdx);
  divideRoundDropLast(Acc[1].Comps, DownIdx);
  return Acc;
}

std::array<RnsPoly, 2> Evaluator::keySwitch(const RnsPoly &Target,
                                            const KSwitchKey &Key) const {
  return keySwitchAccumulate(keySwitchDecompose(Target), Target, {}, Key);
}

void Evaluator::divideRoundDropLast(
    std::vector<std::vector<uint64_t>> &Comps,
    const std::vector<size_t> &PrimeIdx) const {
  size_t K = PrimeIdx.size();
  assert(Comps.size() == K && K >= 2 && "component/prime mismatch");
  size_t DivIdx = PrimeIdx[K - 1];
  const Modulus &Qd = Ctx->prime(DivIdx);
  uint64_t Half = Qd.value() >> 1;

  std::vector<uint64_t> Last = std::move(Comps[K - 1]);
  Ctx->ntt(DivIdx).inverse(Last);
  NumNtts.fetch_add(K, std::memory_order_relaxed); // + K - 1 forward below
  for (uint64_t &V : Last)
    V = addMod(V, Half, Qd);

  uint64_t N = Ctx->polyDegree();
  // Each surviving limb reads the shared coefficient-form Last and rewrites
  // only its own component — independent work per target prime.
  forEachLimb(K - 1, [&](size_t T) {
    size_t TgtIdx = PrimeIdx[T];
    const Modulus &Qt = Ctx->prime(TgtIdx);
    uint64_t HalfMod = Qt.reduce(Half);
    LimbScratch Tmp = acquireLimbScratch(N);
    reducePolyComp(Last, Tmp.span(), Qt);
    // Remove the rounding offset in coefficient form, then transform.
    for (uint64_t &V : Tmp.span())
      V = subMod(V, HalfMod, Qt);
    Ctx->ntt(TgtIdx).forward(Tmp.span());
    const ShoupMul &Inv = Ctx->inversePrime(DivIdx, TgtIdx);
    std::vector<uint64_t> &C = Comps[T];
    for (uint64_t X = 0; X < N; ++X)
      C[X] = mulModShoup(subMod(C[X], Tmp[X], Qt), Inv, Qt);
  });
  Comps.pop_back();
}

Ciphertext Evaluator::relinearize(const Ciphertext &A,
                                  const RelinKeys &Keys) const {
  if (A.size() == 2)
    return A;
  if (A.size() != 3)
    fatalError("relinearization supports exactly 3-polynomial ciphertexts "
               "(Constraint 3 guarantees at most one unrelinearized "
               "multiply)");
  if (Keys.empty())
    fatalError("relinearization keys not generated");
  std::array<RnsPoly, 2> Ks = keySwitch(A.Polys[2], Keys.Key);
  NumRelinearizations.fetch_add(1, std::memory_order_relaxed);
  Ciphertext Out;
  Out.Scale = A.Scale;
  Out.Polys = {A.Polys[0], A.Polys[1]};
  for (size_t C = 0; C < Out.primeCount(); ++C) {
    const Modulus &Q = Ctx->prime(C);
    addPolyComp(Out.Polys[0].Comps[C], Ks[0].Comps[C], Out.Polys[0].Comps[C],
                Q);
    addPolyComp(Out.Polys[1].Comps[C], Ks[1].Comps[C], Out.Polys[1].Comps[C],
                Q);
  }
  return Out;
}

Ciphertext Evaluator::rescale(const Ciphertext &A) const {
  if (A.primeCount() < 2)
    fatalError("rescale with no prime left to drop: the modulus chain is "
               "exhausted");
  NumRescales.fetch_add(1, std::memory_order_relaxed);
  size_t Count = A.primeCount();
  std::vector<size_t> Idx(Count);
  for (size_t I = 0; I < Count; ++I)
    Idx[I] = I;
  Ciphertext Out = A;
  for (RnsPoly &P : Out.Polys) {
    divideRoundDropLast(P.Comps, Idx);
  }
  Out.Scale = A.Scale / static_cast<double>(Ctx->prime(Count - 1).value());
  return Out;
}

Ciphertext Evaluator::modSwitch(const Ciphertext &A) const {
  if (A.primeCount() < 2)
    fatalError("modswitch with no prime left to drop");
  NumModSwitches.fetch_add(1, std::memory_order_relaxed);
  Ciphertext Out = A;
  for (RnsPoly &P : Out.Polys)
    P.dropLastComp();
  return Out;
}

Ciphertext Evaluator::assembleRotation(RnsPoly C0, std::array<RnsPoly, 2> Ks,
                                       double Scale) const {
  Ciphertext Out;
  Out.Scale = Scale;
  Out.Polys = {std::move(C0), std::move(Ks[1])};
  for (size_t C = 0; C < Out.primeCount(); ++C)
    addPolyComp(Out.Polys[0].Comps[C], Ks[0].Comps[C], Out.Polys[0].Comps[C],
                Ctx->prime(C));
  return Out;
}

Ciphertext Evaluator::rotateLeft(const Ciphertext &A, uint64_t Steps,
                                 const GaloisKeys &Keys) const {
  assert(A.size() == 2 && "rotation requires a relinearized ciphertext");
  assert(Steps > 0 && Steps < Ctx->slotCount() && "steps out of range");
  uint64_t G = galoisEltFromStep(Steps, Ctx->polyDegree());
  if (!Keys.has(G))
    fatalError("missing Galois key for rotation by " + std::to_string(Steps) +
               " (the compiler's rotation-selection pass must request it)");

  // The automorphism permutes NTT slots, so it costs no transform.
  LimbScratch Index = acquireLimbScratch(Ctx->polyDegree());
  galoisNttIndex(*Ctx, G, Index.span());
  RnsPoly C0 = applyGaloisNttPoly(A.Polys[0], Index.span());
  RnsPoly C1 = applyGaloisNttPoly(A.Polys[1], Index.span());
  std::array<RnsPoly, 2> Ks = keySwitch(C1, Keys.at(G));
  NumRotations.fetch_add(1, std::memory_order_relaxed);
  return assembleRotation(std::move(C0), std::move(Ks), A.Scale);
}

std::vector<Ciphertext>
Evaluator::rotateHoisted(const Ciphertext &A,
                         const std::vector<uint64_t> &Steps,
                         const GaloisKeys &Keys) const {
  assert(A.size() == 2 && "rotation requires a relinearized ciphertext");
  std::vector<Ciphertext> Out(Steps.size());
  if (Steps.empty())
    return Out;

  // One shared decomposition for the whole batch. The serial path's digits
  // for rotation g are invNTT(galois_g(c1)) = galois_g(invNTT(c1)): the
  // automorphism commutes with the exact transform, so permuting the shared
  // coefficient-form digits reproduces the serial digits bit for bit, and
  // each digit's own limb is the NTT-slot gather of c1's.
  size_t Count = A.primeCount();
  uint64_t N = Ctx->polyDegree();
  std::vector<std::vector<uint64_t>> Digits = keySwitchDecompose(A.Polys[1]);
  NumHoistBatches.fetch_add(1, std::memory_order_relaxed);

  std::vector<std::vector<uint64_t>> Permuted(Count);
  LimbScratch Index = acquireLimbScratch(N);
  for (size_t K = 0; K < Steps.size(); ++K) {
    uint64_t S = Steps[K];
    if (S == 0) { // identity rotation: the compiler normalizes these away,
      Out[K] = A; // but a caller-supplied batch may still contain one
      continue;
    }
    if (S >= Ctx->slotCount())
      fatalError("hoisted rotation step " + std::to_string(S) +
                 " out of range [0, " + std::to_string(Ctx->slotCount()) +
                 ")");
    uint64_t G = galoisEltFromStep(S, Ctx->polyDegree());
    if (!Keys.has(G))
      fatalError("missing Galois key for hoisted rotation by " +
                 std::to_string(S));

    galoisNttIndex(*Ctx, G, Index.span());
    RnsPoly C0 = applyGaloisNttPoly(A.Polys[0], Index.span());
    forEachLimb(Count, [&](size_t I) {
      Permuted[I].resize(N);
      applyGaloisComp(Digits[I], Permuted[I], G, N, Ctx->prime(I));
    });
    std::array<RnsPoly, 2> Ks =
        keySwitchAccumulate(Permuted, A.Polys[1], Index.span(), Keys.at(G));
    Out[K] = assembleRotation(std::move(C0), std::move(Ks), A.Scale);
    NumRotations.fetch_add(1, std::memory_order_relaxed);
    NumHoistedRotations.fetch_add(1, std::memory_order_relaxed);
  }
  return Out;
}

void Evaluator::resetCounters() const {
  for (auto *C : {&NumDecompositions, &NumRotations, &NumHoistedRotations,
                  &NumHoistBatches, &NumNtts, &NumAdds, &NumSubs, &NumNegates,
                  &NumMultiplies, &NumPlainMultiplies, &NumRelinearizations,
                  &NumRescales, &NumModSwitches})
    C->store(0, std::memory_order_relaxed);
}

EvaluatorCounters Evaluator::counters() const {
  EvaluatorCounters C;
  C.KeySwitchDecompositions =
      NumDecompositions.load(std::memory_order_relaxed);
  C.Rotations = NumRotations.load(std::memory_order_relaxed);
  C.HoistedRotations = NumHoistedRotations.load(std::memory_order_relaxed);
  C.HoistBatches = NumHoistBatches.load(std::memory_order_relaxed);
  C.Ntts = NumNtts.load(std::memory_order_relaxed);
  C.Adds = NumAdds.load(std::memory_order_relaxed);
  C.Subs = NumSubs.load(std::memory_order_relaxed);
  C.Negates = NumNegates.load(std::memory_order_relaxed);
  C.Multiplies = NumMultiplies.load(std::memory_order_relaxed);
  C.PlainMultiplies = NumPlainMultiplies.load(std::memory_order_relaxed);
  C.Relinearizations = NumRelinearizations.load(std::memory_order_relaxed);
  C.Rescales = NumRescales.load(std::memory_order_relaxed);
  C.ModSwitches = NumModSwitches.load(std::memory_order_relaxed);
  return C;
}
