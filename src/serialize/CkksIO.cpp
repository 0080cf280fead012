//===- CkksIO.cpp - Runtime object serialization ------------------------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/serialize/CkksIO.h"

#include "eva/ckks/KeyGenerator.h"
#include "eva/serialize/Wire.h"

#include <cmath>

using namespace eva;

namespace {

void writePoly(WireWriter &W, uint32_t Field, const RnsPoly &P) {
  W.bytesField(Field, serializeRnsPoly(P));
}

/// Decodes a poly field into \p Out. Key material (\p Key) must span the
/// whole modulus chain; data-chain objects may sit at any level.
Status readPoly(WireField &F, const CkksContext &Ctx, bool Key, RnsPoly &Out) {
  std::string_view Bytes;
  if (!F.read(Bytes))
    return Status::success(); // the walker rejects the wire type
  size_t MaxPrimes = Key ? Ctx.totalPrimeCount() : Ctx.dataPrimeCount();
  Expected<RnsPoly> P = deserializeRnsPoly(Ctx, Bytes, MaxPrimes);
  if (!P)
    return P.takeStatus();
  if (Key && P->primeCount() != MaxPrimes)
    return Status::error("key polynomial must span all primes");
  Out = std::move(*P);
  return Status::success();
}

/// A public key or key-switch pair: 1 = first poly, then either 2 = second
/// poly or 3 = the nonzero seed the second expands from, never both.
Status decodeSeededPair(const CkksContext &Ctx, std::string_view Data,
                        const char *What, RnsPoly &First, RnsPoly &Second,
                        uint64_t &Seed) {
  bool HaveFirst = false, HaveSecond = false;
  Seed = 0;
  Status S = decodeFields(Data, What, [&](WireField &F) -> Status {
    switch (F.Number) {
    case 1:
      HaveFirst = true;
      return readPoly(F, Ctx, /*Key=*/true, First);
    case 2:
      HaveSecond = true;
      return readPoly(F, Ctx, /*Key=*/true, Second);
    case 3:
      F.read(Seed);
    }
    return Status::success();
  });
  if (!S.ok())
    return S;
  if (!HaveFirst)
    return Status::error(std::string(What) + " missing its first polynomial");
  if (Seed != 0) {
    if (HaveSecond)
      return Status::error(std::string(What) +
                           " has both a second polynomial and a seed");
    Second = expandUniformNtt(Ctx, Ctx.totalPrimeCount(), Seed);
  } else if (!HaveSecond) {
    return Status::error(std::string(What) +
                         " missing its second polynomial and seed");
  }
  return Status::success();
}

/// KSwitchPair: 1=k0, 2=k1 (omitted when seeded), 3=c1_seed.
void writeKSwitchKey(WireWriter &W, uint32_t Field, const KSwitchKey &K) {
  WireWriter KW;
  for (size_t I = 0; I < K.Keys.size(); ++I) {
    WireWriter PairW;
    writePoly(PairW, 1, K.Keys[I][0]);
    uint64_t Seed = I < K.C1Seeds.size() ? K.C1Seeds[I] : 0;
    if (Seed != 0)
      PairW.varintField(3, Seed);
    else
      writePoly(PairW, 2, K.Keys[I][1]);
    KW.bytesField(1, PairW.str());
  }
  W.bytesField(Field, KW.str());
}

/// Decodes a KSwitchKey field: one KSwitchPair (field 1) per decomposition
/// component.
Status readKSwitchKey(WireField &F, const CkksContext &Ctx, KSwitchKey &Key) {
  Key = KSwitchKey();
  Status S = F.decode("key-switch key", [&](WireField &P) -> Status {
    std::string_view Pair;
    if (P.Number != 1 || !P.read(Pair))
      return Status::success();
    std::array<RnsPoly, 2> &K = Key.Keys.emplace_back();
    return decodeSeededPair(Ctx, Pair, "key-switch pair", K[0], K[1],
                            Key.C1Seeds.emplace_back());
  });
  if (!S.ok())
    return S;
  if (Key.Keys.size() != Ctx.dataPrimeCount())
    return Status::error("key-switch key has " +
                         std::to_string(Key.Keys.size()) +
                         " decomposition components, context needs " +
                         std::to_string(Ctx.dataPrimeCount()));
  return Status::success();
}

} // namespace

std::string eva::serializeRnsPoly(const RnsPoly &P) {
  WireWriter PW;
  PW.varintField(1, P.Degree);
  PW.varintField(2, P.primeCount());
  for (const std::vector<uint64_t> &Comp : P.Comps) {
    std::string Raw(Comp.size() * 8, '\0');
    for (size_t I = 0; I < Comp.size(); ++I)
      storeLE64(&Raw[I * 8], Comp[I]);
    PW.bytesField(3, Raw);
  }
  return PW.take();
}

Expected<RnsPoly> eva::deserializeRnsPoly(const CkksContext &Ctx,
                                          std::string_view Data,
                                          size_t MaxPrimes) {
  using Result = Expected<RnsPoly>;
  uint64_t Degree = 0, PrimeCount = 0;
  std::vector<std::string_view> RawComps;
  Status S = decodeFields(Data, "poly", [&](WireField &F) {
    switch (F.Number) {
    case 1:
      F.read(Degree);
      break;
    case 2:
      F.read(PrimeCount);
      break;
    case 3:
      F.read(RawComps.emplace_back());
    }
  });
  if (!S.ok())
    return S;
  if (Degree != Ctx.polyDegree())
    return Result::error("poly degree " + std::to_string(Degree) +
                         " does not match context degree " +
                         std::to_string(Ctx.polyDegree()));
  if (PrimeCount != RawComps.size())
    return Result::error("poly declares " + std::to_string(PrimeCount) +
                         " components but carries " +
                         std::to_string(RawComps.size()));
  if (RawComps.empty() || RawComps.size() > MaxPrimes)
    return Result::error("poly component count " +
                         std::to_string(RawComps.size()) +
                         " outside [1, " + std::to_string(MaxPrimes) + "]");

  RnsPoly P(Degree, RawComps.size());
  for (size_t C = 0; C < RawComps.size(); ++C) {
    if (RawComps[C].size() != Degree * 8)
      return Result::error("poly component " + std::to_string(C) +
                           " has wrong size");
    uint64_t Q = Ctx.prime(C).value();
    for (uint64_t I = 0; I < Degree; ++I) {
      uint64_t V = loadLE64(RawComps[C].data() + I * 8);
      // Arithmetic kernels assume reduced residues; an out-of-range value
      // from a hostile client must be rejected, not computed with.
      if (V >= Q)
        return Result::error("poly residue exceeds its prime modulus");
      P.Comps[C][I] = V;
    }
  }
  return P;
}

std::string eva::serializePlaintext(const Plaintext &Pt) {
  WireWriter W;
  writePoly(W, 1, Pt.Poly);
  W.doubleField(2, Pt.Scale);
  return W.take();
}

Expected<Plaintext> eva::deserializePlaintext(const CkksContext &Ctx,
                                              std::string_view Data) {
  using Result = Expected<Plaintext>;
  Plaintext Pt;
  bool HavePoly = false;
  Status S = decodeFields(Data, "plaintext", [&](WireField &F) -> Status {
    switch (F.Number) {
    case 1:
      HavePoly = true;
      return readPoly(F, Ctx, /*Key=*/false, Pt.Poly);
    case 2:
      F.read(Pt.Scale);
    }
    return Status::success();
  });
  if (!S.ok())
    return S;
  if (!HavePoly)
    return Result::error("plaintext missing polynomial");
  if (!(Pt.Scale > 0) || !std::isfinite(Pt.Scale))
    return Result::error("plaintext scale must be finite and positive");
  return Pt;
}

std::string eva::serializeCiphertext(const Ciphertext &Ct, uint64_t C1Seed) {
  assert((C1Seed == 0 || Ct.size() == 2) &&
         "seed compression applies to fresh 2-polynomial ciphertexts only");
  WireWriter W;
  size_t StoredPolys = C1Seed != 0 ? 1 : Ct.size();
  for (size_t I = 0; I < StoredPolys; ++I)
    writePoly(W, 1, Ct.Polys[I]);
  W.doubleField(2, Ct.Scale);
  if (C1Seed != 0)
    W.varintField(3, C1Seed);
  return W.take();
}

Expected<Ciphertext> eva::deserializeCiphertext(const CkksContext &Ctx,
                                                std::string_view Data) {
  using Result = Expected<Ciphertext>;
  Ciphertext Ct;
  uint64_t C1Seed = 0;
  Status S = decodeFields(Data, "ciphertext", [&](WireField &F) -> Status {
    switch (F.Number) {
    case 1:
      // A ciphertext grown by unrelinearized multiplies stays small; cap the
      // polynomial count defensively so hostile input cannot balloon memory.
      if (Ct.Polys.size() >= 8)
        return Status::error("ciphertext has too many polynomials");
      return readPoly(F, Ctx, /*Key=*/false, Ct.Polys.emplace_back());
    case 2:
      F.read(Ct.Scale);
      break;
    case 3:
      F.read(C1Seed);
    }
    return Status::success();
  });
  if (!S.ok())
    return S;
  if (C1Seed != 0) {
    if (Ct.Polys.size() != 1)
      return Result::error("seed-compressed ciphertext must store exactly "
                           "one polynomial");
    Ct.Polys.push_back(
        expandUniformNtt(Ctx, Ct.Polys[0].primeCount(), C1Seed));
  }
  if (Ct.Polys.size() < 2)
    return Result::error("ciphertext needs at least two polynomials");
  for (const RnsPoly &P : Ct.Polys)
    if (P.primeCount() != Ct.Polys.front().primeCount())
      return Result::error("ciphertext polynomials disagree on level");
  if (!(Ct.Scale > 0) || !std::isfinite(Ct.Scale))
    return Result::error("ciphertext scale must be finite and positive");
  return Ct;
}

std::string eva::serializePublicKey(const PublicKey &Pk) {
  WireWriter W;
  writePoly(W, 1, Pk.P0);
  if (Pk.P1Seed != 0)
    W.varintField(3, Pk.P1Seed);
  else
    writePoly(W, 2, Pk.P1);
  return W.take();
}

Expected<PublicKey> eva::deserializePublicKey(const CkksContext &Ctx,
                                              std::string_view Data) {
  PublicKey Pk;
  if (Status S = decodeSeededPair(Ctx, Data, "public key", Pk.P0, Pk.P1,
                                  Pk.P1Seed);
      !S.ok())
    return S;
  return Pk;
}

std::string eva::serializeRelinKeys(const RelinKeys &Rk) {
  WireWriter W;
  writeKSwitchKey(W, 1, Rk.Key);
  return W.take();
}

Expected<RelinKeys> eva::deserializeRelinKeys(const CkksContext &Ctx,
                                              std::string_view Data) {
  RelinKeys Rk;
  bool HaveKey = false;
  Status S = decodeFields(Data, "relin keys", [&](WireField &F) -> Status {
    if (F.Number != 1)
      return Status::success();
    HaveKey = true;
    return readKSwitchKey(F, Ctx, Rk.Key);
  });
  if (!S.ok())
    return S;
  if (!HaveKey)
    return Expected<RelinKeys>::error("relin keys missing key");
  return Rk;
}

std::string eva::serializeGaloisKeys(const GaloisKeys &Gk) {
  WireWriter W;
  for (const auto &[Elt, Key] : Gk.Keys) {
    WireWriter EW;
    EW.varintField(1, Elt);
    writeKSwitchKey(EW, 2, Key);
    W.bytesField(1, EW.str());
  }
  return W.take();
}

Expected<GaloisKeys> eva::deserializeGaloisKeys(const CkksContext &Ctx,
                                                std::string_view Data) {
  GaloisKeys Gk;
  Status S = decodeFields(Data, "galois keys", [&](WireField &Entry) -> Status {
    if (Entry.Number != 1)
      return Status::success();
    uint64_t Elt = 0;
    KSwitchKey Key;
    bool HaveKey = false;
    Status ES = Entry.decode("galois entry", [&](WireField &F) -> Status {
      switch (F.Number) {
      case 1:
        F.read(Elt);
        break;
      case 2:
        HaveKey = true;
        return readKSwitchKey(F, Ctx, Key);
      }
      return Status::success();
    });
    if (!ES.ok())
      return ES;
    // Valid Galois elements are odd and in (1, 2N).
    if (Elt < 3 || Elt >= 2 * Ctx.polyDegree() || Elt % 2 == 0)
      return Status::error("galois element " + std::to_string(Elt) +
                           " out of range");
    if (!HaveKey)
      return Status::error("galois entry missing key");
    if (!Gk.Keys.emplace(Elt, std::move(Key)).second)
      return Status::error("duplicate galois element " + std::to_string(Elt));
    return Status::success();
  });
  if (!S.ok())
    return S;
  return Gk;
}

std::string eva::serializeSecretKey(const SecretKey &Sk) {
  WireWriter W;
  writePoly(W, 1, Sk.S);
  return W.take();
}

Expected<SecretKey> eva::deserializeSecretKey(const CkksContext &Ctx,
                                              std::string_view Data) {
  SecretKey Sk;
  bool HaveS = false;
  Status S = decodeFields(Data, "secret key", [&](WireField &F) -> Status {
    if (F.Number != 1)
      return Status::success();
    HaveS = true;
    return readPoly(F, Ctx, /*Key=*/true, Sk.S);
  });
  if (!S.ok())
    return S;
  if (!HaveS)
    return Expected<SecretKey>::error("secret key missing polynomial");
  return Sk;
}
