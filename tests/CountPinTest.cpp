//===- CountPinTest.cpp - Exact op-count pins for the SoK perceptron ---------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the host-independent op counts of one encrypted request of the SoK
/// 2-layer perceptron (Viand et al.; the e2ebench `mlp_local` shape):
/// 1x32x32 image -> FC 32 -> x^2 -> FC 16. Counts are deterministic per
/// compiled program, so any change in them — a kernel, pass or executor
/// change — shows up here as a diff in review, and the outputs are checked
/// against a plaintext pass so a cheaper but wrong program cannot pass.
///
/// Before the hybrid matvec both layers took BSGS: 1071 plaintext
/// multiplies, 35 key-switch decompositions, 94 rotations (62 hoisted),
/// 2443 NTTs and 62 Galois keys, at the same 200 modulus bits.
///
//===----------------------------------------------------------------------===//

#include "eva/api/Runner.h"
#include "eva/core/Compiler.h"
#include "eva/support/Random.h"
#include "eva/tensor/Network.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace eva;

namespace {

TEST(SokPerceptron, PinsExactOpCounts) {
  const size_t InDim = 1024, Hidden = 32, OutDim = 16;
  RandomSource Rng(2024);
  Tensor W1 = Tensor::random({Hidden, InDim}, Rng, 0.5);
  Tensor B1 = Tensor::random({Hidden}, Rng, 0.5);
  Tensor W2 = Tensor::random({OutDim, Hidden}, Rng, 0.5);
  Tensor B2 = Tensor::random({OutDim}, Rng, 0.5);
  NetworkDefinition Net("mlp", 1, 32, 32);
  Net.addFc(W1, B1);
  Net.addSquare();
  Net.addFc(W2, B2);

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
    EXPECT_EQ(S.Ntts, 1277u);
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

} // namespace
