//===- NoiseTest.cpp - Static noise estimation vs. observed error ------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//

#include "eva/core/Analysis.h"
#include "eva/core/Compiler.h"
#include "eva/frontend/Expr.h"
#include "eva/runtime/CkksExecutor.h"
#include "eva/runtime/ReferenceExecutor.h"
#include "eva/support/Random.h"
#include "eva/tensor/Network.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace eva;

namespace {

NoiseEstimate estimateFor(const CompiledProgram &CP) {
  return analyzeProgram(*CP.Prog, {60, CP.PolyDegree}).value().OutputNoise;
}

TEST(NoiseEstimate, DeeperProgramsAreNoisier) {
  auto PrecisionOfPow = [](unsigned K) {
    ProgramBuilder B("pow", 64);
    Expr X = B.inputCipher("x", 40);
    B.output("out", X.pow(K), 30);
    Expected<CompiledProgram> CP = compile(B.program());
    EXPECT_TRUE(CP.ok());
    return estimateFor(*CP).OutputPrecisionBits[0];
  };
  double P2 = PrecisionOfPow(2);
  double P8 = PrecisionOfPow(8);
  double P32 = PrecisionOfPow(32);
  EXPECT_GT(P2, P8);
  EXPECT_GT(P8, P32);
  EXPECT_GT(P32, 0) << "x^32 at scale 2^40 should still decode";
}

TEST(NoiseEstimate, HigherScalesBuyPrecision) {
  auto PrecisionAt = [](double Scale) {
    ProgramBuilder B("s", 64);
    Expr X = B.inputCipher("x", Scale);
    B.output("out", (X * X) * (X << 3), 30);
    Expected<CompiledProgram> CP = compile(B.program());
    EXPECT_TRUE(CP.ok());
    return estimateFor(*CP).OutputPrecisionBits[0];
  };
  EXPECT_GT(PrecisionAt(40), PrecisionAt(30));
  EXPECT_GT(PrecisionAt(50), PrecisionAt(40));
}

TEST(NoiseEstimate, RotationsCostKeySwitchNoise) {
  auto Precision = [](bool WithRotations) {
    ProgramBuilder B("r", 1024);
    Expr X = B.inputCipher("x", 35);
    Expr V = X * X;
    if (WithRotations)
      for (int I = 0; I < 5; ++I)
        V = V + (V << (1 << I));
    B.output("out", V, 30);
    Expected<CompiledProgram> CP = compile(B.program());
    EXPECT_TRUE(CP.ok());
    return estimateFor(*CP).OutputPrecisionBits[0];
  };
  EXPECT_GT(Precision(false), Precision(true));
}

TEST(NoiseEstimate, BoundsObservedErrorOnRealExecution) {
  // The estimate is a (loose, heuristic) upper bound on noise: observed
  // error should not exceed 2^-(precision - slack).
  ProgramBuilder B("obs", 256);
  Expr X = B.inputCipher("x", 40);
  Expr V = (X.pow(4) + (X << 9)) * B.constant(0.5, 20);
  B.output("out", V, 25);
  Program &P = B.program();
  Expected<CompiledProgram> CP = compile(P);
  ASSERT_TRUE(CP.ok());
  double Precision = estimateFor(*CP).OutputPrecisionBits[0];
  ASSERT_GT(Precision, 4);

  Expected<std::shared_ptr<CkksWorkspace>> WS = CkksWorkspace::create(*CP, 3);
  ASSERT_TRUE(WS.ok());
  CkksExecutor Exec(*CP, WS.value());
  RandomSource Rng(5);
  std::vector<double> In(256);
  for (double &V2 : In)
    V2 = Rng.uniformReal(-1, 1);
  std::map<std::string, std::vector<double>> Got =
      Exec.runPlain({{"x", In}});
  std::map<std::string, std::vector<double>> Want =
      *ReferenceExecutor(P).run({{"x", In}});
  double MaxErr = 0;
  for (size_t I = 0; I < 256; ++I)
    MaxErr = std::max(MaxErr,
                      std::abs(Got.at("out")[I] - Want.at("out")[I]));
  // 6 bits of slack on the heuristic model.
  EXPECT_LT(MaxErr, std::exp2(-(Precision - 6)));
}

TEST(NoiseEstimate, ChetModeIsNoisierThanEva) {
  // Table 4's fidelity gap, predicted statically: the CHET discipline's
  // boost multiplies and low working scale lose precision.
  NetworkDefinition N = makeLeNet5Small(7);
  TensorScales S;
  std::unique_ptr<Program> P = N.buildProgram(S);
  Expected<CompiledProgram> Eva = compile(*P, CompilerOptions::eva());
  Expected<CompiledProgram> Chet = compile(*P, CompilerOptions::chet());
  ASSERT_TRUE(Eva.ok() && Chet.ok());
  double PE = estimateFor(*Eva).OutputPrecisionBits[0];
  double PC = estimateFor(*Chet).OutputPrecisionBits[0];
  EXPECT_GT(PE, PC);
}

} // namespace
