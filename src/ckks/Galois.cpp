//===- Galois.cpp - Galois automorphisms for rotation ----------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/ckks/Galois.h"

#include "eva/support/Arena.h"

using namespace eva;

uint64_t eva::galoisEltFromStep(uint64_t Steps, uint64_t PolyDegree) {
  assert(Steps > 0 && Steps < PolyDegree / 2 && "steps out of range");
  // 5^Steps by square-and-multiply; 2N is a power of two, so reducing
  // mod 2N is a mask and every product stays below (2N)^2.
  uint64_t Mask = 2 * PolyDegree - 1;
  uint64_t G = 1, Base = 5;
  for (; Steps != 0; Steps >>= 1) {
    if (Steps & 1)
      G = (G * Base) & Mask;
    Base = (Base * Base) & Mask;
  }
  return G;
}

void eva::applyGaloisComp(std::span<const uint64_t> In,
                          std::span<uint64_t> Out, uint64_t GaloisElt,
                          uint64_t PolyDegree, const Modulus &Q) {
  assert(In.size() == PolyDegree && Out.size() == PolyDegree);
  assert((GaloisElt & 1) != 0 && "galois element must be odd");
  uint64_t Mask = 2 * PolyDegree - 1;
  // X^i -> X^{i*g mod 2N}; X^N == -1 folds indices >= N with a sign flip.
  for (uint64_t I = 0; I < PolyDegree; ++I) {
    uint64_t J = (I * GaloisElt) & Mask;
    uint64_t V = In[I];
    if (J >= PolyDegree)
      Out[J - PolyDegree] = negateMod(V, Q);
    else
      Out[J] = V;
  }
}

void eva::galoisNttIndex(const CkksContext &Ctx, uint64_t GaloisElt,
                         std::span<uint64_t> Index) {
  std::span<const uint32_t> Rev = Ctx.bitReversal();
  assert(Index.size() == Rev.size() && "index must span the degree");
  assert((GaloisElt & 1) != 0 && "galois element must be odd");
  uint64_t Mask = 2 * Ctx.polyDegree() - 1;
  // Slot j evaluates at psi^e with e = 2 brv(j) + 1; sigma_g reads the slot
  // whose exponent is g e mod 2N, i.e. slot brv((g e mod 2N - 1) / 2).
  for (size_t J = 0; J < Index.size(); ++J) {
    uint64_t E = 2 * uint64_t(Rev[J]) + 1;
    Index[J] = Rev[((GaloisElt * E) & Mask) >> 1];
  }
}

void eva::applyGaloisNttComp(std::span<const uint64_t> In,
                             std::span<uint64_t> Out,
                             std::span<const uint64_t> Index) {
  assert(In.size() == Index.size() && Out.size() == Index.size());
  for (size_t J = 0; J < Index.size(); ++J)
    Out[J] = In[Index[J]];
}

RnsPoly eva::applyGaloisNttPoly(const RnsPoly &Poly,
                                std::span<const uint64_t> Index) {
  // evalint: allow(heap-in-hot-path): the automorphed polynomial is the
  // result; the index it gathers through lives in the caller's LimbScratch.
  RnsPoly Out(Poly.Degree, Poly.primeCount());
  for (size_t I = 0; I < Poly.primeCount(); ++I)
    applyGaloisNttComp(Poly.Comps[I], Out.Comps[I], Index);
  return Out;
}

RnsPoly eva::applyGaloisNttPoly(const CkksContext &Ctx, const RnsPoly &Poly,
                                uint64_t GaloisElt, bool SpansSpecialPrime) {
  if (SpansSpecialPrime) {
    assert(Poly.primeCount() == Ctx.totalPrimeCount() &&
           "key polynomials must span all primes");
  } else {
    assert(Poly.primeCount() <= Ctx.dataPrimeCount() &&
           "too many components");
  }
  (void)SpansSpecialPrime;
  LimbScratch Index = acquireLimbScratch(Poly.Degree);
  galoisNttIndex(Ctx, GaloisElt, Index.span());
  return applyGaloisNttPoly(Poly, Index.span());
}
