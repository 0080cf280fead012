//===- eva/ckks/Galois.h - Galois automorphisms for rotation ----*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The automorphism X -> X^g of R = Z[X]/(X^N + 1) for odd g, which in the
/// encoder's slot ordering (index group generated by 5 mod 2N) realizes slot
/// rotation: g = 5^r mod 2N rotates all N/2 slots left by r. This is the
/// cryptographic mechanism behind the EVA language's ROTATELEFT /
/// ROTATERIGHT instructions.
///
/// On NTT-form limbs the automorphism is a permutation of slots (as in
/// SEAL): slot j holds a(psi^(2 brv(j) + 1)), and sigma_g(a) evaluated there
/// is a(psi^(g (2 brv(j) + 1))), so no transform is needed and the same
/// index map serves every prime.
///
//===----------------------------------------------------------------------===//

#ifndef EVA_CKKS_GALOIS_H
#define EVA_CKKS_GALOIS_H

#include "eva/ckks/Context.h"
#include "eva/ckks/Poly.h"

#include <cstdint>
#include <span>

namespace eva {

/// Galois element realizing a left rotation by \p Steps slots
/// (0 < Steps < N/2): 5^Steps mod 2N.
uint64_t galoisEltFromStep(uint64_t Steps, uint64_t PolyDegree);

/// Applies X -> X^g to one coefficient-domain component modulo \p Q.
void applyGaloisComp(std::span<const uint64_t> In, std::span<uint64_t> Out,
                     uint64_t GaloisElt, uint64_t PolyDegree,
                     const Modulus &Q);

/// Fills \p Index (N words) with the NTT-slot permutation of X -> X^g:
/// slot j of the automorphed limb is slot Index[j] of the input, for every
/// prime of \p Ctx.
void galoisNttIndex(const CkksContext &Ctx, uint64_t GaloisElt,
                    std::span<uint64_t> Index);

/// Applies X -> X^g to one NTT-form limb: Out[j] = In[Index[j]], with
/// \p Index from galoisNttIndex.
void applyGaloisNttComp(std::span<const uint64_t> In, std::span<uint64_t> Out,
                        std::span<const uint64_t> Index);

/// Applies X -> X^g to every limb of an NTT-form RNS polynomial, given the
/// automorphism's galoisNttIndex.
RnsPoly applyGaloisNttPoly(const RnsPoly &Poly,
                           std::span<const uint64_t> Index);

/// Applies X -> X^g to an NTT-form RNS polynomial over the first
/// poly.primeCount() primes of \p Ctx; \p SpansSpecialPrime marks key
/// material that spans the special prime as well. A pure gather: exact,
/// so bit-identical to inverse NTT, permute, forward NTT.
RnsPoly applyGaloisNttPoly(const CkksContext &Ctx, const RnsPoly &Poly,
                           uint64_t GaloisElt, bool SpansSpecialPrime);

} // namespace eva

#endif // EVA_CKKS_GALOIS_H
