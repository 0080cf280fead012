//===- CkksTest.cpp - Unit tests for the RNS-CKKS substrate ----------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/ckks/Context.h"
#include "eva/ckks/Decryptor.h"
#include "eva/ckks/Encoder.h"
#include "eva/ckks/Encryptor.h"
#include "eva/ckks/Evaluator.h"
#include "eva/ckks/Galois.h"
#include "eva/ckks/KeyGenerator.h"
#include "eva/math/Primes.h"
#include "eva/math/Simd.h"
#include "eva/support/Arena.h"
#include "eva/support/Random.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace eva;

namespace {

std::shared_ptr<CkksContext> makeContext(uint64_t N,
                                         std::vector<int> BitSizes) {
  Expected<std::shared_ptr<CkksContext>> Ctx =
      CkksContext::createFromBitSizes(N, BitSizes, SecurityLevel::None);
  EXPECT_TRUE(Ctx.ok()) << (Ctx.ok() ? "" : Ctx.message());
  return Ctx.value();
}

std::vector<double> randomVector(size_t N, double Lo, double Hi,
                                 uint64_t Seed) {
  RandomSource Rng(Seed);
  std::vector<double> V(N);
  for (double &X : V)
    X = Rng.uniformReal(Lo, Hi);
  return V;
}

double maxAbsDiff(const std::vector<double> &A, const std::vector<double> &B) {
  EXPECT_EQ(A.size(), B.size());
  double M = 0;
  for (size_t I = 0; I < A.size(); ++I)
    M = std::max(M, std::abs(A[I] - B[I]));
  return M;
}

TEST(Context, ValidatesParameters) {
  // Good parameters.
  EXPECT_TRUE(
      CkksContext::createFromBitSizes(2048, {40, 40}, SecurityLevel::None)
          .ok());
  // Non-power-of-two degree.
  EncryptionParameters P;
  P.PolyDegree = 3000;
  P.CoeffModulus = {65537, 786433};
  EXPECT_FALSE(CkksContext::create(P, SecurityLevel::None).ok());
  // Not enough primes.
  EXPECT_FALSE(
      CkksContext::createFromBitSizes(2048, {40}, SecurityLevel::None).ok());
  // Security bound: 2048 allows only 54 bits total at TC128.
  EXPECT_FALSE(
      CkksContext::createFromBitSizes(2048, {40, 40}, SecurityLevel::TC128)
          .ok());
  EXPECT_TRUE(
      CkksContext::createFromBitSizes(2048, {27, 27}, SecurityLevel::TC128)
          .ok());
}

TEST(Context, RejectsNonNttPrime) {
  EncryptionParameters P;
  P.PolyDegree = 2048;
  // 1000003 is prime but not 1 mod 4096.
  P.CoeffModulus = {1000003, 1032193};
  EXPECT_FALSE(CkksContext::create(P, SecurityLevel::None).ok());
}

TEST(Context, RejectsDuplicatePrimes) {
  Expected<std::vector<uint64_t>> Ps = generateNttPrimes(2048, 40, 1);
  ASSERT_TRUE(Ps.ok());
  EncryptionParameters P;
  P.PolyDegree = 2048;
  P.CoeffModulus = {(*Ps)[0], (*Ps)[0]};
  EXPECT_FALSE(CkksContext::create(P, SecurityLevel::None).ok());
}

class EncoderRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EncoderRoundTrip, EncodeDecodeIsNearIdentity) {
  uint64_t N = GetParam();
  auto Ctx = makeContext(N, {50, 50});
  CkksEncoder Enc(Ctx);
  std::vector<double> In = randomVector(N / 2, -2.0, 2.0, N);
  Plaintext Pt;
  Enc.encode(In, std::ldexp(1.0, 40), 1, Pt);
  std::vector<double> Out = Enc.decode(Pt);
  EXPECT_LT(maxAbsDiff(In, Out), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Degrees, EncoderRoundTrip,
                         ::testing::Values(32, 256, 2048, 8192));

TEST(Encoder, ReplicatesShortVectors) {
  auto Ctx = makeContext(2048, {50, 50});
  CkksEncoder Enc(Ctx);
  std::vector<double> In = {1.5, -2.25, 3.0, 0.125};
  Plaintext Pt;
  Enc.encode(In, std::ldexp(1.0, 40), 1, Pt);
  std::vector<double> Out = Enc.decode(Pt);
  ASSERT_EQ(Out.size(), 1024u);
  for (size_t I = 0; I < Out.size(); ++I)
    EXPECT_NEAR(Out[I], In[I % 4], 1e-8);
}

TEST(Encoder, ScalarEncodingFillsAllSlots) {
  auto Ctx = makeContext(2048, {50, 50});
  CkksEncoder Enc(Ctx);
  Plaintext Pt;
  Enc.encodeScalar(0.7125, std::ldexp(1.0, 40), 1, Pt);
  std::vector<double> Out = Enc.decode(Pt);
  for (double V : Out)
    EXPECT_NEAR(V, 0.7125, 1e-9);
}

TEST(Encoder, MultiPrimeEncodeDecode) {
  auto Ctx = makeContext(2048, {50, 40, 40, 50});
  CkksEncoder Enc(Ctx);
  std::vector<double> In = randomVector(1024, -1.0, 1.0, 3);
  Plaintext Pt;
  Enc.encode(In, std::ldexp(1.0, 80), 3, Pt); // scale above one prime
  std::vector<double> Out = Enc.decode(Pt);
  EXPECT_LT(maxAbsDiff(In, Out), 1e-8);
}

struct CkksFixture : public ::testing::Test {
  void SetUp() override {
    Ctx = makeContext(4096, {50, 40, 40, 50});
    Enc = std::make_unique<CkksEncoder>(Ctx);
    Gen = std::make_unique<KeyGenerator>(Ctx, 1234);
    Pk = Gen->createPublicKey();
    Encryptor_ = std::make_unique<Encryptor>(Ctx, Pk, 777);
    Dec = std::make_unique<Decryptor>(Ctx, Gen->secretKey());
    Eval = std::make_unique<Evaluator>(Ctx);
  }

  Ciphertext encryptVec(const std::vector<double> &V, double Scale,
                        size_t Primes) {
    Plaintext Pt;
    Enc->encode(V, Scale, Primes, Pt);
    return Encryptor_->encrypt(Pt);
  }

  std::vector<double> decryptVec(const Ciphertext &Ct) {
    return Enc->decode(Dec->decrypt(Ct));
  }

  std::shared_ptr<CkksContext> Ctx;
  std::unique_ptr<CkksEncoder> Enc;
  std::unique_ptr<KeyGenerator> Gen;
  PublicKey Pk;
  std::unique_ptr<Encryptor> Encryptor_;
  std::unique_ptr<Decryptor> Dec;
  std::unique_ptr<Evaluator> Eval;
};

TEST_F(CkksFixture, EncryptDecryptRoundTrip) {
  std::vector<double> In = randomVector(2048, -1.0, 1.0, 11);
  Ciphertext Ct = encryptVec(In, std::ldexp(1.0, 40), 3);
  std::vector<double> Out = decryptVec(Ct);
  EXPECT_LT(maxAbsDiff(In, Out), 1e-6);
}

TEST_F(CkksFixture, AddSubNegate) {
  std::vector<double> A = randomVector(2048, -1.0, 1.0, 21);
  std::vector<double> B = randomVector(2048, -1.0, 1.0, 22);
  double Scale = std::ldexp(1.0, 40);
  Ciphertext CA = encryptVec(A, Scale, 3);
  Ciphertext CB = encryptVec(B, Scale, 3);

  std::vector<double> Sum = decryptVec(Eval->add(CA, CB));
  std::vector<double> Diff = decryptVec(Eval->sub(CA, CB));
  std::vector<double> Neg = decryptVec(Eval->negate(CA));
  for (size_t I = 0; I < 2048; ++I) {
    EXPECT_NEAR(Sum[I], A[I] + B[I], 1e-6);
    EXPECT_NEAR(Diff[I], A[I] - B[I], 1e-6);
    EXPECT_NEAR(Neg[I], -A[I], 1e-6);
  }
}

TEST_F(CkksFixture, AddPlainAndSubPlain) {
  std::vector<double> A = randomVector(2048, -1.0, 1.0, 31);
  std::vector<double> B = randomVector(2048, -1.0, 1.0, 32);
  double Scale = std::ldexp(1.0, 40);
  Ciphertext CA = encryptVec(A, Scale, 3);
  Plaintext PB;
  Enc->encode(B, Scale, 3, PB);

  std::vector<double> Sum = decryptVec(Eval->addPlain(CA, PB));
  std::vector<double> Diff = decryptVec(Eval->subPlain(CA, PB));
  std::vector<double> RDiff = decryptVec(Eval->subFromPlain(PB, CA));
  for (size_t I = 0; I < 2048; ++I) {
    EXPECT_NEAR(Sum[I], A[I] + B[I], 1e-6);
    EXPECT_NEAR(Diff[I], A[I] - B[I], 1e-6);
    EXPECT_NEAR(RDiff[I], B[I] - A[I], 1e-6);
  }
}

TEST_F(CkksFixture, MultiplyPlain) {
  std::vector<double> A = randomVector(2048, -1.0, 1.0, 41);
  std::vector<double> B = randomVector(2048, -1.0, 1.0, 42);
  double Scale = std::ldexp(1.0, 40);
  Ciphertext CA = encryptVec(A, Scale, 3);
  Plaintext PB;
  Enc->encode(B, Scale, 3, PB);
  Ciphertext Prod = Eval->multiplyPlain(CA, PB);
  EXPECT_NEAR(Prod.Scale, Scale * Scale, 1.0);
  std::vector<double> Out = decryptVec(Prod);
  for (size_t I = 0; I < 2048; ++I)
    EXPECT_NEAR(Out[I], A[I] * B[I], 1e-5);
}

TEST_F(CkksFixture, MultiplyGrowsSizeAndRelinearizeShrinks) {
  std::vector<double> A = randomVector(2048, -1.0, 1.0, 51);
  std::vector<double> B = randomVector(2048, -1.0, 1.0, 52);
  double Scale = std::ldexp(1.0, 40);
  Ciphertext CA = encryptVec(A, Scale, 3);
  Ciphertext CB = encryptVec(B, Scale, 3);
  Ciphertext Prod = Eval->multiply(CA, CB);
  EXPECT_EQ(Prod.size(), 3u);
  std::vector<double> Out3 = decryptVec(Prod);
  for (size_t I = 0; I < 2048; ++I)
    EXPECT_NEAR(Out3[I], A[I] * B[I], 1e-5);

  RelinKeys Rk = Gen->createRelinKeys();
  Ciphertext Relin = Eval->relinearize(Prod, Rk);
  EXPECT_EQ(Relin.size(), 2u);
  std::vector<double> Out2 = decryptVec(Relin);
  for (size_t I = 0; I < 2048; ++I)
    EXPECT_NEAR(Out2[I], A[I] * B[I], 1e-5);
}

TEST_F(CkksFixture, RescaleDividesScaleByDroppedPrime) {
  std::vector<double> A = randomVector(2048, -1.0, 1.0, 61);
  std::vector<double> B = randomVector(2048, -1.0, 1.0, 62);
  double Scale = std::ldexp(1.0, 40);
  Ciphertext CA = encryptVec(A, Scale, 3);
  Plaintext PB;
  Enc->encode(B, Scale, 3, PB);
  Ciphertext Prod = Eval->multiplyPlain(CA, PB);
  size_t CountBefore = Prod.primeCount();
  uint64_t Dropped = Ctx->prime(CountBefore - 1).value();
  Ciphertext Scaled = Eval->rescale(Prod);
  EXPECT_EQ(Scaled.primeCount(), CountBefore - 1);
  EXPECT_NEAR(Scaled.Scale, Scale * Scale / double(Dropped), 1e-3);
  std::vector<double> Out = decryptVec(Scaled);
  for (size_t I = 0; I < 2048; ++I)
    EXPECT_NEAR(Out[I], A[I] * B[I], 1e-5);
}

TEST_F(CkksFixture, ModSwitchPreservesValueAndScale) {
  std::vector<double> A = randomVector(2048, -1.0, 1.0, 71);
  double Scale = std::ldexp(1.0, 40);
  Ciphertext CA = encryptVec(A, Scale, 3);
  Ciphertext Down = Eval->modSwitch(CA);
  EXPECT_EQ(Down.primeCount(), CA.primeCount() - 1);
  EXPECT_EQ(Down.Scale, CA.Scale);
  std::vector<double> Out = decryptVec(Down);
  EXPECT_LT(maxAbsDiff(A, Out), 1e-6);
}

TEST_F(CkksFixture, DepthTwoMultiplyChainWithRescale) {
  // x^2 * y with rescaling between: exercises the full pipeline the
  // compiler emits for Figure 2-style programs.
  std::vector<double> X = randomVector(2048, -1.0, 1.0, 81);
  std::vector<double> Y = randomVector(2048, -1.0, 1.0, 82);
  double Scale = std::ldexp(1.0, 40);
  Ciphertext CX = encryptVec(X, Scale, 3);
  Ciphertext CY = encryptVec(Y, Scale, 3);
  RelinKeys Rk = Gen->createRelinKeys();

  Ciphertext X2 = Eval->rescale(Eval->relinearize(Eval->multiply(CX, CX), Rk));
  // Bring y to x^2's level and scale: multiply by a constant 1 at the scale
  // quotient (the compiler's MATCH-SCALE trick), then rescale+modswitch.
  Ciphertext Y2 = Eval->modSwitch(CY);
  Plaintext One;
  std::vector<double> OneV = {1.0};
  Enc->encode(OneV, X2.Scale / Y2.Scale, 2, One);
  Ciphertext YM = Eval->multiplyPlain(Y2, One);
  Ciphertext Prod = Eval->relinearize(Eval->multiply(X2, YM), Rk);
  std::vector<double> Out = decryptVec(Prod);
  for (size_t I = 0; I < 2048; ++I)
    EXPECT_NEAR(Out[I], X[I] * X[I] * Y[I], 1e-4);
}

class RotationSteps : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RotationSteps, RotateLeftMatchesCyclicShift) {
  auto Ctx = makeContext(2048, {50, 40, 50});
  CkksEncoder Enc(Ctx);
  KeyGenerator Gen(Ctx, 55);
  PublicKey Pk = Gen.createPublicKey();
  Encryptor Encryptor_(Ctx, Pk, 56);
  Decryptor Dec(Ctx, Gen.secretKey());
  Evaluator Eval(Ctx);

  uint64_t Steps = GetParam();
  GaloisKeys Gk = Gen.createGaloisKeys({Steps});

  size_t Slots = Ctx->slotCount();
  std::vector<double> In = randomVector(Slots, -1.0, 1.0, Steps);
  Plaintext Pt;
  Enc.encode(In, std::ldexp(1.0, 40), 2, Pt);
  Ciphertext Ct = Encryptor_.encrypt(Pt);
  Ciphertext Rot = Eval.rotateLeft(Ct, Steps, Gk);
  std::vector<double> Out = Enc.decode(Dec.decrypt(Rot));
  for (size_t I = 0; I < Slots; ++I)
    EXPECT_NEAR(Out[I], In[(I + Steps) % Slots], 1e-5)
        << "slot " << I << " steps " << Steps;
}

INSTANTIATE_TEST_SUITE_P(Steps, RotationSteps,
                         ::testing::Values(1, 2, 3, 64, 512, 1023));

TEST_F(CkksFixture, RotateHoistedBitIdenticalToSerialRotations) {
  // The hoisted batch shares one key-switch decomposition; every output
  // must still be bit-for-bit the serial rotateLeft result — including a
  // duplicate step and an embedded identity (step 0).
  std::vector<uint64_t> Steps = {1, 5, 37, 5, 0, 2047};
  std::set<uint64_t> KeySteps(Steps.begin(), Steps.end());
  GaloisKeys Gk = Gen->createGaloisKeys(KeySteps);

  std::vector<double> In = randomVector(2048, -1.0, 1.0, 29);
  Ciphertext Ct = encryptVec(In, std::ldexp(1.0, 40), 3);

  Eval->resetCounters();
  std::vector<Ciphertext> Hoisted = Eval->rotateHoisted(Ct, Steps, Gk);
  EvaluatorCounters C = Eval->counters();
  EXPECT_EQ(C.KeySwitchDecompositions, 1u);
  EXPECT_EQ(C.HoistBatches, 1u);
  EXPECT_EQ(C.HoistedRotations, 5u); // step 0 is a copy, not a rotation

  ASSERT_EQ(Hoisted.size(), Steps.size());
  for (size_t K = 0; K < Steps.size(); ++K) {
    Ciphertext Want =
        Steps[K] == 0 ? Ct : Eval->rotateLeft(Ct, Steps[K], Gk);
    ASSERT_EQ(Hoisted[K].size(), Want.size()) << "step " << Steps[K];
    EXPECT_EQ(Hoisted[K].Scale, Want.Scale);
    for (size_t P = 0; P < Want.size(); ++P)
      EXPECT_EQ(Hoisted[K].Polys[P].Comps, Want.Polys[P].Comps)
          << "step " << Steps[K] << " poly " << P;
  }
}

TEST_F(CkksFixture, RotateHoistedMatchesCyclicShiftAtLowerLevel) {
  // Hoisting after rescale (fewer limbs) still decrypts to the rotation.
  GaloisKeys Gk = Gen->createGaloisKeys({3, 300});
  std::vector<double> In = randomVector(2048, -1.0, 1.0, 31);
  Ciphertext Ct = Eval->rescale(
      encryptVec(In, std::ldexp(1.0, 80), 3)); // drop one prime
  std::vector<Ciphertext> R = Eval->rotateHoisted(Ct, {3, 300}, Gk);
  std::vector<double> A = decryptVec(R[0]);
  std::vector<double> B = decryptVec(R[1]);
  for (size_t I = 0; I < 2048; ++I) {
    EXPECT_NEAR(A[I], In[(I + 3) % 2048], 1e-5) << "slot " << I;
    EXPECT_NEAR(B[I], In[(I + 300) % 2048], 1e-5) << "slot " << I;
  }
}

// NTT counts per op at L data primes. Key switching extends every digit to
// the special prime as well, so its accumulate phase runs over L + 1 primes;
// a digit's own prime reuses the NTT-form limb it came from. Galois
// automorphisms permute NTT slots and run no transform.
uint64_t decomposeNtts(uint64_t L) { return L; } // one inverse per digit
uint64_t accumulateNtts(uint64_t L) {
  return L * L          // every digit forward at every other output prime
         + 2 * (L + 1); // two mod-downs by the special prime
}
uint64_t keySwitchNtts(uint64_t L) {
  return decomposeNtts(L) + accumulateNtts(L);
}
uint64_t rescaleNtts(uint64_t L) { return 2 * L; } // one mod-down per poly
uint64_t rotateNtts(uint64_t L) { return keySwitchNtts(L); }
uint64_t hoistedNtts(uint64_t L, uint64_t S) {
  // One shared decomposition; per rotation, an accumulate phase.
  return decomposeNtts(L) + S * accumulateNtts(L);
}

TEST_F(CkksFixture, NttCountsMatchClosedForms) {
  RelinKeys Rk = Gen->createRelinKeys();
  std::vector<uint64_t> Steps = {1, 5, 37};
  GaloisKeys Gk = Gen->createGaloisKeys({1, 5, 37});
  Ciphertext Top =
      encryptVec(randomVector(2048, -1.0, 1.0, 91), std::ldexp(1.0, 40), 3);
  // Two prime counts: the full data chain and one modswitched level.
  for (Ciphertext Ct : {Top, Eval->modSwitch(Top)}) {
    uint64_t L = Ct.primeCount();
    auto NttsOf = [&](auto &&Op) {
      Eval->resetCounters();
      Op();
      return Eval->counters().Ntts;
    };
    EXPECT_EQ(NttsOf([&] { Eval->rescale(Ct); }), rescaleNtts(L))
        << "L=" << L;
    Ciphertext Prod = Eval->multiply(Ct, Ct);
    EXPECT_EQ(NttsOf([&] { Eval->relinearize(Prod, Rk); }), keySwitchNtts(L))
        << "L=" << L;
    EXPECT_EQ(NttsOf([&] { Eval->rotateLeft(Ct, 5, Gk); }), rotateNtts(L))
        << "L=" << L;
    uint64_t Hoisted = NttsOf([&] { Eval->rotateHoisted(Ct, Steps, Gk); });
    EXPECT_EQ(Hoisted, hoistedNtts(L, Steps.size())) << "L=" << L;
    uint64_t Serial = NttsOf([&] {
      for (uint64_t S : Steps)
        Eval->rotateLeft(Ct, S, Gk);
    });
    EXPECT_EQ(Serial, Steps.size() * rotateNtts(L)) << "L=" << L;
    EXPECT_LT(Hoisted, Serial) << "L=" << L;
    // Work without NTTs counts none.
    EXPECT_EQ(NttsOf([&] {
                Eval->add(Ct, Ct);
                Eval->multiply(Ct, Ct);
                Eval->modSwitch(Ct);
              }),
              0u);
  }
}

TEST_F(CkksFixture, SteadyStateOpsServeScratchFromTheArena) {
  // A pool-less evaluator runs every limb on this thread, so this thread's
  // arena sees all scratch traffic. After one warm-up pass, a second pass
  // of the same ops must be served entirely from the free lists.
  RelinKeys Rk = Gen->createRelinKeys();
  GaloisKeys Gk = Gen->createGaloisKeys({1});
  Ciphertext Ct =
      encryptVec(randomVector(2048, -1.0, 1.0, 93), std::ldexp(1.0, 40), 3);
  auto Pass = [&] {
    Ciphertext P = Eval->rescale(Eval->relinearize(Eval->multiply(Ct, Ct), Rk));
    return Eval->rotateLeft(P, 1, Gk);
  };
  Pass();
  LimbArenaStats Before = limbArenaStats();
  Pass();
  LimbArenaStats After = limbArenaStats();
  EXPECT_GT(After.Acquires - Before.Acquires, 0u);
  EXPECT_EQ(After.HeapAllocations - Before.HeapAllocations, 0u);
  EXPECT_EQ(After.Hits - Before.Hits, After.Acquires - Before.Acquires);
}

TEST(Galois, EltFromStepMatchesPowersOfFive) {
  EXPECT_EQ(galoisEltFromStep(1, 2048), 5u);
  EXPECT_EQ(galoisEltFromStep(2, 2048), 25u);
  EXPECT_EQ(galoisEltFromStep(3, 2048), 125u);
}

/// 5^Steps mod 2N by the definition: Steps repeated multiplies.
uint64_t eltByRepeatedMultiply(uint64_t Steps, uint64_t N) {
  uint64_t G = 1;
  for (uint64_t I = 0; I < Steps; ++I)
    G = (G * 5) % (2 * N);
  return G;
}

TEST(Galois, EltFromStepMatchesRepeatedMultiply) {
  for (uint64_t S = 1; S < 1024; ++S)
    ASSERT_EQ(galoisEltFromStep(S, 2048), eltByRepeatedMultiply(S, 2048))
        << "N=2048 step " << S;
  for (uint64_t S : {1u, 2u, 3u, 255u, 256u, 1000u, 4095u, 4096u, 5461u,
                     8191u})
    ASSERT_EQ(galoisEltFromStep(S, 16384), eltByRepeatedMultiply(S, 16384))
        << "N=16384 step " << S;
}

TEST(Galois, ApplyGaloisCompMatchesModularDefinition) {
  const uint64_t N = 2048;
  Modulus Q(1032193);
  RandomSource Rng(47);
  std::vector<uint64_t> In(N), Out(N), Want(N);
  for (uint64_t &V : In)
    V = Rng.uniformBelow(Q.value());
  for (uint64_t G : {galoisEltFromStep(1, N), galoisEltFromStep(700, N),
                     2 * N - 1}) {
    for (uint64_t I = 0; I < N; ++I) {
      uint64_t J = (I * G) % (2 * N);
      if (J >= N)
        Want[J - N] = negateMod(In[I], Q);
      else
        Want[J] = In[I];
    }
    applyGaloisComp(In, Out, G, N, Q);
    EXPECT_EQ(Out, Want) << "g=" << G;
  }
}

/// The automorphism through coefficient form: per limb, inverse NTT,
/// permute coefficients, forward NTT. The oracle for the NTT-slot gather.
RnsPoly galoisByRoundTrip(const CkksContext &Ctx, const RnsPoly &Poly,
                          uint64_t G) {
  RnsPoly Out(Poly.Degree, Poly.primeCount());
  for (size_t I = 0; I < Poly.primeCount(); ++I) {
    std::vector<uint64_t> Coeffs = Poly.Comps[I];
    Ctx.ntt(I).inverse(Coeffs);
    applyGaloisComp(Coeffs, Out.Comps[I], G, Poly.Degree, Ctx.prime(I));
    Ctx.ntt(I).forward(Out.Comps[I]);
  }
  return Out;
}

/// Pins the NTT dispatch level for a scope.
class ScopedSimdLevel {
public:
  explicit ScopedSimdLevel(SimdLevel L) : Saved(activeSimdLevel()) {
    setSimdLevelForTesting(L);
  }
  ~ScopedSimdLevel() { setSimdLevelForTesting(Saved); }

private:
  SimdLevel Saved;
};

TEST(Galois, NttSlotPermutationMatchesRoundTrip) {
  std::vector<SimdLevel> Levels = {SimdLevel::Scalar};
  if (avx2Available())
    Levels.push_back(SimdLevel::Avx2);
  RandomSource Rng(53);
  for (uint64_t N : {uint64_t(2048), uint64_t(8192)}) {
    std::shared_ptr<CkksContext> Ctx = makeContext(N, {50, 40, 40, 50});
    // Every step at N = 2048; a spread of steps at N = 8192. Plus the
    // conjugation element 2N - 1, which no step produces.
    std::vector<uint64_t> Elts = {2 * N - 1};
    if (N == 2048) {
      for (uint64_t S = 1; S < N / 2; ++S)
        Elts.push_back(galoisEltFromStep(S, N));
    } else {
      for (uint64_t S : {1u, 2u, 3u, 5u, 37u, 255u, 256u, 1000u, 2047u,
                         2048u, 3001u, 4095u})
        Elts.push_back(galoisEltFromStep(S, N));
    }
    // Data-only polynomials (full chain and one level down) and a key-style
    // polynomial spanning the special prime.
    for (size_t Count : {Ctx->dataPrimeCount(), Ctx->dataPrimeCount() - 1,
                         Ctx->totalPrimeCount()}) {
      bool Special = Count == Ctx->totalPrimeCount();
      RnsPoly Poly(N, Count);
      for (size_t I = 0; I < Count; ++I)
        for (uint64_t &V : Poly.Comps[I])
          V = Rng.uniformBelow(Ctx->prime(I).value());
      for (SimdLevel L : Levels) {
        ScopedSimdLevel Pin(L);
        for (uint64_t G : Elts) {
          RnsPoly Got = applyGaloisNttPoly(*Ctx, Poly, G, Special);
          RnsPoly Want = galoisByRoundTrip(*Ctx, Poly, G);
          for (size_t I = 0; I < Count; ++I)
            ASSERT_EQ(Got.Comps[I], Want.Comps[I])
                << "N=" << N << " limbs=" << Count << " limb " << I
                << " g=" << G << " simd=" << simdLevelName(L);
        }
      }
    }
  }
}

TEST(Galois, ApplyGaloisCompPermutesWithSign) {
  Modulus Q(97);
  uint64_t N = 8;
  std::vector<uint64_t> In = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<uint64_t> Out(N);
  applyGaloisComp(In, Out, /*GaloisElt=*/3, N, Q);
  // X^i -> X^{3i mod 16}; indices >= 8 negate: i=0->0, 1->3, 2->6, 3->9=>1
  // (neg), 4->12=>4 (neg), 5->15=>7 (neg), 6->18mod16=2, 7->21mod16=5.
  EXPECT_EQ(Out[0], 1u);
  EXPECT_EQ(Out[3], 2u);
  EXPECT_EQ(Out[6], 3u);
  EXPECT_EQ(Out[1], 97u - 4u);
  EXPECT_EQ(Out[4], 97u - 5u);
  EXPECT_EQ(Out[7], 97u - 6u);
  EXPECT_EQ(Out[2], 7u);
  EXPECT_EQ(Out[5], 8u);
}

TEST_F(CkksFixture, NoiseStaysBoundedThroughDeepChain) {
  // Repeated plaintext multiplies and rescales: scale returns near the
  // waterline each level and error stays small.
  std::vector<double> X = randomVector(2048, 0.5, 1.0, 91);
  double Scale = std::ldexp(1.0, 40);
  Ciphertext Ct = encryptVec(X, Scale, 3);
  std::vector<double> Want = X;
  for (int Level = 0; Level < 2; ++Level) {
    Plaintext P;
    std::vector<double> HalfV = {0.5};
    Enc->encode(HalfV, Scale, Ct.primeCount(), P);
    Ct = Eval->rescale(Eval->multiplyPlain(Ct, P));
    for (double &W : Want)
      W *= 0.5;
  }
  std::vector<double> Out = decryptVec(Ct);
  EXPECT_LT(maxAbsDiff(Want, Out), 1e-4);
}

} // namespace
