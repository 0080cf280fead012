//===- CountPinTest.cpp - Exact op-count and output-hash pins ---------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the host-independent op counts of one encrypted request of the two
/// e2ebench programs: the SoK 2-layer perceptron (Viand et al.; the
/// `mlp_local` shape, 1x32x32 image -> FC 32 -> x^2 -> FC 16) and the
/// Table 8 linear-regression fit (the `tenants_service` program). Counts are
/// deterministic per compiled program, so any change in them — a kernel,
/// pass or executor change — shows up here as a diff in review, and the
/// outputs are checked against a plaintext pass so a cheaper but wrong
/// program cannot pass.
///
/// Before the hybrid matvec both perceptron layers took BSGS: 1071
/// plaintext multiplies, 35 key-switch decompositions, 94 rotations (62
/// hoisted), 2443 NTTs and 62 Galois keys, at the same 200 modulus bits.
///
/// The CrossVersion tests pin FNV-1a hashes of the serialized output
/// ciphertexts and Galois keys of a reproducible-seed run, so a kernel
/// rewrite that claims bit-identity is checked against the code it
/// replaced, not only against itself. The hashes assume libstdc++'s
/// std::normal_distribution (error sampling) and IEEE-754 doubles.
///
//===----------------------------------------------------------------------===//

#include "eva/api/Runner.h"
#include "eva/core/Compiler.h"
#include "eva/frontend/Expr.h"
#include "eva/runtime/CkksExecutor.h"
#include "eva/serialize/CkksIO.h"
#include "eva/service/Audit.h"
#include "eva/support/Random.h"
#include "eva/tensor/Network.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace eva;

namespace {

const size_t InDim = 1024, Hidden = 32, OutDim = 16;

/// The SoK perceptron with weights drawn from \p Rng.
NetworkDefinition sokPerceptron(RandomSource &Rng) {
  Tensor W1 = Tensor::random({Hidden, InDim}, Rng, 0.5);
  Tensor B1 = Tensor::random({Hidden}, Rng, 0.5);
  Tensor W2 = Tensor::random({OutDim, Hidden}, Rng, 0.5);
  Tensor B2 = Tensor::random({OutDim}, Rng, 0.5);
  NetworkDefinition Net("mlp", 1, 32, 32);
  Net.addFc(W1, B1);
  Net.addSquare();
  Net.addFc(W2, B2);
  return Net;
}

const uint64_t Samples = 2048;

/// The Table 8 linear-regression fit as e2ebench's tenants_service serves
/// it: num = n*Sxy - Sx*Sy and den = n*Sxx - Sx^2, each sum scaled by 1/1024.
std::unique_ptr<Program> buildRegression() {
  ProgramBuilder B("linear_regression", Samples);
  Expr X = B.inputCipher("x", 30);
  Expr Y = B.inputCipher("y", 30);
  Expr Sx = B.sumSlots(X), Sy = B.sumSlots(Y);
  Expr Sxy = B.sumSlots(X * Y), Sxx = B.sumSlots(X * X);
  Expr Cn = B.constant(static_cast<double>(Samples) / 1024.0, 30);
  Expr Inv = B.constant(1.0 / 1024.0, 30);
  Expr SxN = Sx * Inv, SyN = Sy * Inv, SxyN = Sxy * Inv, SxxN = Sxx * Inv;
  B.output("num", SxyN * Cn - SxN * SyN, 30);
  B.output("den", SxxN * Cn - SxN * SxN, 30);
  return B.take();
}

/// Regression inputs x in [-1, 1] and y = 0.75 x + 0.1 + noise.
std::map<std::string, std::vector<double>> regressionInputs(uint64_t Seed) {
  RandomSource Rng(Seed);
  std::vector<double> X(Samples), Y(Samples);
  for (uint64_t I = 0; I < Samples; ++I) {
    X[I] = Rng.uniformReal(-1.0, 1.0);
    Y[I] = 0.75 * X[I] + 0.1 + Rng.uniformReal(-0.05, 0.05);
  }
  return {{"x", X}, {"y", Y}};
}

/// FNV-1a of the serialized outputs (in name order) and Galois keys of one
/// run over a reproducible-seed client workspace: the bytes a remote
/// client would receive and upload.
struct RunHashes {
  uint64_t Outputs = 0, GaloisKeys = 0;
};

RunHashes hashReproducibleRun(
    const CompiledProgram &CP,
    const std::map<std::string, std::vector<double>> &Inputs) {
  const uint64_t Seed = 17;
  Expected<std::shared_ptr<CkksWorkspace>> WS =
      CkksWorkspace::createClient(CP, Seed, /*ReproducibleSeeds=*/true);
  EXPECT_TRUE(WS.ok()) << WS.message();
  if (!WS)
    return {};
  std::shared_ptr<CkksWorkspace> W = WS.value();
  SealedInputs Sealed;
  for (const Node *N : CP.Prog->inputs()) {
    Plaintext Pt;
    W->Encoder->encode(Inputs.at(N->name()), std::exp2(N->logScale()),
                       W->Context->dataPrimeCount(), Pt);
    uint64_t C1Seed = 0;
    Sealed.Cipher.emplace(N->name(), W->Enc->encryptSymmetric(
                                         Pt, W->KeyGen->secretKey(), C1Seed));
  }
  CkksExecutor Exec(CP, W);
  RunHashes H;
  H.Outputs = fnv1a64("");
  for (const auto &[Name, Ct] : Exec.run(Sealed))
    H.Outputs = fnv1a64(serializeCiphertext(Ct), H.Outputs);
  H.GaloisKeys = fnv1a64(serializeGaloisKeys(W->Gk));
  return H;
}

TEST(SokPerceptron, PinsExactOpCounts) {
  RandomSource Rng(2024);
  NetworkDefinition Net = sokPerceptron(Rng);

  std::unique_ptr<Program> P = Net.buildProgram(TensorScales());
  Expected<CompiledProgram> CP = compile(*P, CompilerOptions::eva());
  ASSERT_TRUE(CP.ok()) << CP.message();
  EXPECT_EQ(CP->RotationSteps.size(), 36u);
  EXPECT_EQ(CP->TotalModulusBits, 200);

  LocalRunnerOptions Opts;
  Opts.Threads = 2;
  Expected<std::unique_ptr<Runner>> R = Runner::local(std::move(*CP), Opts);
  ASSERT_TRUE(R.ok()) << R.message();

  std::vector<double> X(InDim);
  for (double &V : X)
    V = Rng.uniformReal(-0.5, 0.5);
  Tensor Image({1, 32, 32});
  Image.data() = X;
  Tensor Want = Net.runPlain(Image);

  for (int Run = 0; Run < 2; ++Run) {
    SCOPED_TRACE("run " + std::to_string(Run));
    Expected<Valuation> Out = (*R)->run(Valuation().set("image", X));
    ASSERT_TRUE(Out.ok()) << Out.message();
    const ExecutionStats &S = *(*R)->executionStats();
    EXPECT_EQ(S.PlainMultiplies, 48u);
    EXPECT_EQ(S.KeySwitchDecompositions, 9u);
    EXPECT_EQ(S.Rotations, 52u);
    EXPECT_EQ(S.HoistedRotations, 46u);
    EXPECT_EQ(S.Ntts, 820u);
    // 48 diagonals + 2 biases encode on the first run, none after.
    EXPECT_EQ(S.ConstantEncodes, Run == 0 ? 50u : 0u);

    // The plaintext oracle: CKKS error is absolute at the output scale,
    // so it is judged against the largest score (as e2ebench does).
    double Worst = 0, Range = 1;
    for (size_t K = 0; K < OutDim; ++K) {
      Worst = std::max(Worst, std::abs(Out->vector("scores")[K] - Want.at(K)));
      Range = std::max(Range, std::abs(Want.at(K)));
    }
    EXPECT_LT(Worst / Range, 5e-2);
  }
}

TEST(LinearRegression, PinsExactOpCounts) {
  std::unique_ptr<Program> P = buildRegression();
  Expected<CompiledProgram> CP = compile(*P, CompilerOptions::eva());
  ASSERT_TRUE(CP.ok()) << CP.message();
  EXPECT_EQ(CP->RotationSteps.size(), 11u);
  EXPECT_EQ(CP->TotalModulusBits, 210);

  Expected<std::unique_ptr<Runner>> R = Runner::local(std::move(*CP));
  ASSERT_TRUE(R.ok()) << R.message();
  std::map<std::string, std::vector<double>> In = regressionInputs(5);
  double Sx = 0, Sy = 0, Sxy = 0, Sxx = 0;
  for (uint64_t I = 0; I < Samples; ++I) {
    Sx += In["x"][I];
    Sy += In["y"][I];
    Sxy += In["x"][I] * In["y"][I];
    Sxx += In["x"][I] * In["x"][I];
  }
  const double Scale = 1.0 / (1024.0 * 1024.0);
  double WantNum = (Samples * Sxy - Sx * Sy) * Scale;
  double WantDen = (Samples * Sxx - Sx * Sx) * Scale;

  Expected<Valuation> Out =
      (*R)->run(Valuation().set("x", In["x"]).set("y", In["y"]));
  ASSERT_TRUE(Out.ok()) << Out.message();
  const ExecutionStats &S = *(*R)->executionStats();
  EXPECT_EQ(S.KeySwitchDecompositions, 48u);
  EXPECT_EQ(S.Rotations, 44u);
  EXPECT_EQ(S.HoistedRotations, 0u);
  EXPECT_EQ(S.Multiplies, 4u);
  EXPECT_EQ(S.Ntts, 984u);
  EXPECT_NEAR(Out->vector("num")[0], WantNum, 1e-3 * std::abs(WantNum));
  EXPECT_NEAR(Out->vector("den")[0], WantDen, 1e-3 * std::abs(WantDen));
}

TEST(CrossVersion, SokPerceptronOutputsAndKeysMatchPinnedHashes) {
  RandomSource Rng(2024);
  NetworkDefinition Net = sokPerceptron(Rng);
  std::unique_ptr<Program> P = Net.buildProgram(TensorScales());
  Expected<CompiledProgram> CP = compile(*P, CompilerOptions::eva());
  ASSERT_TRUE(CP.ok()) << CP.message();
  std::vector<double> X(InDim);
  for (double &V : X)
    V = Rng.uniformReal(-0.5, 0.5);
  RunHashes H = hashReproducibleRun(*CP, {{"image", X}});
  EXPECT_EQ(H.Outputs, 0xb7b5a5d4e2b5c2c9ull);
  EXPECT_EQ(H.GaloisKeys, 0x4b47105a7d23c509ull);
}

TEST(CrossVersion, LinearRegressionOutputsAndKeysMatchPinnedHashes) {
  std::unique_ptr<Program> P = buildRegression();
  Expected<CompiledProgram> CP = compile(*P, CompilerOptions::eva());
  ASSERT_TRUE(CP.ok()) << CP.message();
  RunHashes H = hashReproducibleRun(*CP, regressionInputs(5));
  EXPECT_EQ(H.Outputs, 0x7531a1cb5d5b4323ull);
  EXPECT_EQ(H.GaloisKeys, 0x9847aefd43530493ull);
}

} // namespace
