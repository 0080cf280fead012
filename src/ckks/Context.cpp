//===- Context.cpp - Validated CKKS parameter context ---------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/ckks/Context.h"

#include "eva/math/Primes.h"
#include "eva/support/BitOps.h"

#include <algorithm>
#include <string>

using namespace eva;

Expected<std::shared_ptr<CkksContext>>
CkksContext::create(const EncryptionParameters &Parms,
                    SecurityLevel Security) {
  using Result = Expected<std::shared_ptr<CkksContext>>;
  if (!isPowerOfTwo(Parms.PolyDegree) || Parms.PolyDegree < 8 ||
      Parms.PolyDegree > 65536)
    return Result::error("polynomial degree must be a power of two in "
                         "[8, 65536], got " +
                         std::to_string(Parms.PolyDegree));
  if (Parms.CoeffModulus.size() < 2)
    return Result::error("coefficient modulus needs at least one data prime "
                         "and the special prime");

  int TotalBits = 0;
  for (uint64_t P : Parms.CoeffModulus) {
    if (!isPrime(P))
      return Result::error("coefficient modulus " + std::to_string(P) +
                           " is not prime");
    if ((P - 1) % (2 * Parms.PolyDegree) != 0)
      return Result::error("prime " + std::to_string(P) +
                           " is not congruent to 1 mod 2N");
    if ((P >> MaxModulusBits) != 0)
      return Result::error("prime " + std::to_string(P) + " exceeds " +
                           std::to_string(MaxModulusBits) + " bits");
    TotalBits += static_cast<int>(bitLength(P));
  }
  for (size_t I = 0; I < Parms.CoeffModulus.size(); ++I)
    for (size_t J = I + 1; J < Parms.CoeffModulus.size(); ++J)
      if (Parms.CoeffModulus[I] == Parms.CoeffModulus[J])
        return Result::error("duplicate prime " +
                             std::to_string(Parms.CoeffModulus[I]) +
                             " in coefficient modulus");

  int MaxBits = maxCoeffModulusBits(Parms.PolyDegree, Security);
  if (MaxBits == 0)
    return Result::error("polynomial degree " +
                         std::to_string(Parms.PolyDegree) +
                         " unsupported at the requested security level");
  if (TotalBits > MaxBits)
    return Result::error(
        "coefficient modulus of " + std::to_string(TotalBits) +
        " bits violates the 128-bit security bound of " +
        std::to_string(MaxBits) + " bits for degree " +
        std::to_string(Parms.PolyDegree));

  std::shared_ptr<CkksContext> Ctx(new CkksContext());
  Ctx->Degree = Parms.PolyDegree;
  Ctx->Security = Security;
  Ctx->TotalBits = TotalBits;
  for (uint64_t P : Parms.CoeffModulus)
    Ctx->Primes.emplace_back(P);
  for (const Modulus &Q : Ctx->Primes)
    Ctx->Ntt.push_back(std::make_unique<NttTables>(Parms.PolyDegree, Q));
  unsigned LogN = log2Exact(Parms.PolyDegree);
  Ctx->BitRev.resize(Parms.PolyDegree);
  for (uint64_t J = 0; J < Parms.PolyDegree; ++J)
    Ctx->BitRev[J] = static_cast<uint32_t>(reverseBits(J, LogN));

  size_t DataCount = Ctx->Primes.size() - 1;
  for (size_t Count = 1; Count <= DataCount; ++Count)
    Ctx->Composers.emplace_back(std::vector<Modulus>(
        Ctx->Primes.begin(), Ctx->Primes.begin() + Count));

  Ctx->InvPrime.resize(Ctx->Primes.size());
  for (size_t D = 1; D < Ctx->Primes.size(); ++D) {
    Ctx->InvPrime[D].resize(D);
    for (size_t T = 0; T < D; ++T) {
      const Modulus &Qt = Ctx->Primes[T];
      uint64_t Inv = invMod(Qt.reduce(Ctx->Primes[D].value()), Qt);
      Ctx->InvPrime[D][T] = ShoupMul(Inv, Qt);
    }
  }
  return Ctx;
}

Expected<std::shared_ptr<CkksContext>>
CkksContext::createFromBitSizes(uint64_t PolyDegree,
                                const std::vector<int> &BitSizes,
                                SecurityLevel Security) {
  Expected<std::vector<uint64_t>> Primes =
      createCoeffModulus(PolyDegree, BitSizes);
  if (!Primes)
    return Primes.takeStatus();
  EncryptionParameters Parms;
  Parms.PolyDegree = PolyDegree;
  Parms.CoeffModulus = Primes.value();
  return create(Parms, Security);
}
