//===- eva/ckks/Context.h - Validated CKKS parameter context ----*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Owns the validated encryption parameters and every precomputed table the
/// scheme needs: per-prime NTT tables, the bit-reversal of the NTT slot
/// order (Galois automorphisms), per-level CRT composers for decoding, and
/// the inverse-prime constants used by rescaling and key-switch mod-down.
/// The last prime in the chain is the key-switching "special prime"
/// (consumed during encryption in the paper's parameter-selection pass,
/// Section 6.2); the primes before it are the data chain that RESCALE and
/// MODSWITCH consume back-to-front.
///
//===----------------------------------------------------------------------===//

#ifndef EVA_CKKS_CONTEXT_H
#define EVA_CKKS_CONTEXT_H

#include "eva/ckks/SecurityTable.h"
#include "eva/math/CRT.h"
#include "eva/math/Modulus.h"
#include "eva/math/NTT.h"
#include "eva/support/Error.h"

#include <memory>
#include <span>
#include <vector>

namespace eva {

struct EncryptionParameters {
  uint64_t PolyDegree = 0;
  /// All chain primes: data primes in consumption order (the prime consumed
  /// last is at index 0; RESCALE drops the highest live index), followed by
  /// the special prime.
  std::vector<uint64_t> CoeffModulus;
};

class CkksContext {
public:
  /// Validates parameters and builds all tables. Fails (with a diagnostic)
  /// on non-power-of-two degree, duplicate or NTT-unfriendly primes, or a
  /// chain that violates the security table.
  static Expected<std::shared_ptr<CkksContext>>
  create(const EncryptionParameters &Parms,
         SecurityLevel Security = SecurityLevel::TC128);

  /// Convenience: generates primes from bit sizes (last entry = special
  /// prime) and builds the context.
  static Expected<std::shared_ptr<CkksContext>>
  createFromBitSizes(uint64_t PolyDegree, const std::vector<int> &BitSizes,
                     SecurityLevel Security = SecurityLevel::TC128);

  uint64_t polyDegree() const { return Degree; }
  size_t slotCount() const { return Degree / 2; }
  /// Number of data primes (excludes the special prime).
  size_t dataPrimeCount() const { return Primes.size() - 1; }
  size_t totalPrimeCount() const { return Primes.size(); }
  size_t specialPrimeIndex() const { return Primes.size() - 1; }

  const Modulus &prime(size_t I) const { return Primes[I]; }
  const NttTables &ntt(size_t I) const { return *Ntt[I]; }
  /// Entry J reverses the low log2 N bits of J: NTT slot J of every prime
  /// holds the evaluation at psi^(2 * bitReversal()[J] + 1).
  std::span<const uint32_t> bitReversal() const { return BitRev; }
  SecurityLevel securityLevel() const { return Security; }
  int totalModulusBits() const { return TotalBits; }

  /// CRT composer over the first \p Count data primes (decoding).
  const CrtComposer &composer(size_t Count) const {
    assert(Count >= 1 && Count <= dataPrimeCount() && "bad level");
    return Composers[Count - 1];
  }

  /// q_Divisor^{-1} mod q_Target, Shoup-scaled (rescale & mod-down).
  const ShoupMul &inversePrime(size_t DivisorIdx, size_t TargetIdx) const {
    assert(DivisorIdx < Primes.size() && TargetIdx < DivisorIdx);
    return InvPrime[DivisorIdx][TargetIdx];
  }

private:
  CkksContext() = default;

  uint64_t Degree = 0;
  SecurityLevel Security = SecurityLevel::TC128;
  int TotalBits = 0;
  std::vector<Modulus> Primes;
  std::vector<std::unique_ptr<NttTables>> Ntt;
  std::vector<uint32_t> BitRev;
  std::vector<CrtComposer> Composers; // [count-1] -> first `count` primes
  std::vector<std::vector<ShoupMul>> InvPrime;
};

} // namespace eva

#endif // EVA_CKKS_CONTEXT_H
