//===- eva/ckks/Encryptor.h - Public-key encryption -------------*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#ifndef EVA_CKKS_ENCRYPTOR_H
#define EVA_CKKS_ENCRYPTOR_H

#include "eva/ckks/Ciphertext.h"
#include "eva/ckks/Context.h"
#include "eva/ckks/KeyGenerator.h"
#include "eva/ckks/Keys.h"
#include "eva/ckks/Plaintext.h"
#include "eva/support/ThreadAnnotations.h"

#include <memory>

namespace eva {

/// Encrypts encoded plaintexts under the public key. Fresh ciphertexts have
/// 2 polynomials and carry the plaintext's scale; they are created over the
/// plaintext's prime count (always the full data chain in compiled EVA
/// programs, since MODSWITCH instructions lower levels explicitly).
///
/// encryptSymmetric produces a ciphertext under the secret key whose c1 is
/// expanded from a PRNG seed, so serialization can ship (c0, seed) instead
/// of (c0, c1) — half the upload for fresh request ciphertexts. Decryption
/// and evaluation treat both forms identically.
///
/// Thread-safe: the sampler's RNG is serialized, so runners sharing one
/// workspace may encrypt concurrently. Each call draws its randomness in
/// one critical section, so a single caller's stream — and every
/// ciphertext a seeded single-threaded caller produces — is unchanged.
class Encryptor {
public:
  /// \p ReproducibleSeeds forwards to the internal sampler's reproducible
  /// expansion-seed mode (see KeyGenerator): symmetric ciphertexts' c1
  /// seeds become a pure function of \p Seed instead of OS entropy.
  Encryptor(std::shared_ptr<const CkksContext> Ctx, PublicKey Pk,
            uint64_t Seed = 0, bool ReproducibleSeeds = false);

  /// Symmetric-only encryptor: no public key needed (clients that hold the
  /// secret key and only upload seed-compressed fresh ciphertexts).
  Encryptor(std::shared_ptr<const CkksContext> Ctx, uint64_t Seed,
            bool ReproducibleSeeds = false);

  Ciphertext encrypt(const Plaintext &Pt);

  /// Secret-key encryption with seed-expanded c1. \p C1SeedOut receives the
  /// seed such that Polys[1] == expandUniformNtt(Ctx, count, seed).
  Ciphertext encryptSymmetric(const Plaintext &Pt, const SecretKey &Sk,
                              uint64_t &C1SeedOut);

private:
  std::shared_ptr<const CkksContext> Ctx;
  PublicKey Pk; // empty polys for symmetric-only encryptors
  /// Leaf lock: held only while drawing from Sampler.
  Mutex SamplerMutex;
  /// Reused for ternary/error sampling and c1 seeds only.
  KeyGenerator Sampler EVA_GUARDED_BY(SamplerMutex);
};

} // namespace eva

#endif // EVA_CKKS_ENCRYPTOR_H
