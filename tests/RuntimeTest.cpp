//===- RuntimeTest.cpp - End-to-end compile-and-execute tests ----------------===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Integration tests across compiler + CKKS backend + executors: every
/// compiled program must produce (approximately) the same outputs as the
/// reference id-scheme executor, under all executors and both compiler
/// modes — the paper's correctness guarantee.
///
//===----------------------------------------------------------------------===//

#include "eva/api/Runner.h"
#include "eva/frontend/Expr.h"
#include "eva/ir/Printer.h"
#include "eva/runtime/CkksExecutor.h"
#include "eva/runtime/ReferenceExecutor.h"
#include "eva/support/Random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <type_traits>

using namespace eva;

namespace {

std::map<std::string, std::vector<double>>
randomInputs(const Program &P, uint64_t Seed, double Lo = -1.0,
             double Hi = 1.0) {
  RandomSource Rng(Seed);
  std::map<std::string, std::vector<double>> Inputs;
  for (const Node *I : P.inputs()) {
    std::vector<double> V(P.vecSize());
    for (double &X : V)
      X = Rng.uniformReal(Lo, Hi);
    Inputs.emplace(I->name(), std::move(V));
  }
  return Inputs;
}

double maxOutputError(const std::map<std::string, std::vector<double>> &A,
                      const std::map<std::string, std::vector<double>> &B) {
  EXPECT_EQ(A.size(), B.size());
  double Err = 0;
  for (const auto &[Name, VA] : A) {
    auto It = B.find(Name);
    EXPECT_NE(It, B.end()) << "missing output " << Name;
    if (It == B.end())
      continue;
    EXPECT_EQ(VA.size(), It->second.size());
    for (size_t I = 0; I < VA.size(); ++I)
      Err = std::max(Err, std::abs(VA[I] - It->second[I]));
  }
  return Err;
}

/// Compiles and runs under both the reference and the CKKS executor;
/// returns the max elementwise deviation.
double compileAndCompare(const Program &P, const CompilerOptions &Options,
                         uint64_t Seed, double InputLo = -1.0,
                         double InputHi = 1.0) {
  Expected<CompiledProgram> CP = compile(P, Options);
  EXPECT_TRUE(CP.ok()) << (CP.ok() ? "" : CP.message());
  if (!CP.ok())
    return 1e9;
  std::map<std::string, std::vector<double>> Inputs =
      randomInputs(P, Seed, InputLo, InputHi);
  ReferenceExecutor Ref(P);
  std::map<std::string, std::vector<double>> Want = *Ref.run(Inputs);

  Expected<std::shared_ptr<CkksWorkspace>> WS =
      CkksWorkspace::create(*CP, Seed + 7);
  EXPECT_TRUE(WS.ok()) << (WS.ok() ? "" : WS.message());
  if (!WS.ok())
    return 1e9;
  CkksExecutor Exec(*CP, WS.value());
  std::map<std::string, std::vector<double>> Got = Exec.runPlain(Inputs);
  return maxOutputError(Want, Got);
}

TEST(EndToEnd, PolynomialEvaluation) {
  // 1 + 2x + 3x^2 - x^3 over encrypted x.
  ProgramBuilder B("poly", 512);
  Expr X = B.inputCipher("x", 30);
  Expr X2 = X * X;
  Expr X3 = X2 * X;
  Expr R = X * B.constant(2.0, 30) + X2 * B.constant(3.0, 30) -
           X3 + B.constant(1.0, 30);
  B.output("out", R, 30);
  EXPECT_LT(compileAndCompare(B.program(), CompilerOptions::eva(), 17), 1e-3);
}

TEST(EndToEnd, RotationsAndSums) {
  ProgramBuilder B("rots", 256);
  Expr X = B.inputCipher("x", 30);
  Expr R = (X << 5) + (X >> 3) + B.sumSlots(X * X);
  B.output("out", R, 30);
  EXPECT_LT(compileAndCompare(B.program(), CompilerOptions::eva(), 23),
            1e-2);
}

TEST(EndToEnd, DeepMultiplyChain) {
  // Depth-4 chain exercises rescale + modswitch + relinearize together.
  ProgramBuilder B("deep", 128);
  Expr X = B.inputCipher("x", 40);
  Expr V = X.pow(16);
  B.output("out", V, 30);
  EXPECT_LT(compileAndCompare(B.program(), CompilerOptions::eva(), 31, 0.5,
                              1.1),
            1e-2);
}

TEST(EndToEnd, MixedScalesTriggerMatchScale) {
  ProgramBuilder B("mixed", 64);
  Expr X = B.inputCipher("x", 30);
  Expr Y = B.inputCipher("y", 25);
  Expr R = X * X + Y + B.constant(0.25, 10);
  B.output("out", R, 25);
  EXPECT_LT(compileAndCompare(B.program(), CompilerOptions::eva(), 37),
            1e-2);
}

TEST(EndToEnd, ChetModeIsAlsoCorrect) {
  ProgramBuilder B("chetok", 64);
  Expr X = B.inputCipher("x", 25);
  Expr C = B.constant(0.5, 15);
  Expr V = X;
  for (int I = 0; I < 2; ++I)
    V = (V * C) * V;
  B.output("out", V, 25);
  EXPECT_LT(compileAndCompare(B.program(), CompilerOptions::chet(), 41),
            2e-2);
}

TEST(EndToEnd, MultipleOutputsAtDifferentDepths) {
  ProgramBuilder B("multi", 64);
  Expr X = B.inputCipher("x", 30);
  B.output("shallow", X + X, 30);
  B.output("mid", X * X, 30);
  B.output("deep", X.pow(4), 30);
  EXPECT_LT(compileAndCompare(B.program(), CompilerOptions::eva(), 43),
            1e-2);
}

// A hoisting flag passed where the thread count goes must not compile:
// false would silently mean a hardware-concurrency pool.
static_assert(!std::is_constructible_v<CkksExecutor, const CompiledProgram &,
                                       std::shared_ptr<CkksWorkspace>, bool>);
static_assert(
    !std::is_constructible_v<KernelBulkCkksExecutor, const CompiledProgram &,
                             std::shared_ptr<CkksWorkspace>, bool, bool>);
static_assert(std::is_constructible_v<CkksExecutor, const CompiledProgram &,
                                      std::shared_ptr<CkksWorkspace>, size_t,
                                      bool>);

struct ExecutorKind {
  const char *Name;
  bool Bulk; // KernelBulkCkksExecutor instead of the DAG executor
  size_t Threads;
};

class AllExecutors : public ::testing::TestWithParam<ExecutorKind> {};

TEST_P(AllExecutors, AgreeOnSobelLikeProgram) {
  const ExecutorKind &K = GetParam();
  // A miniature Sobel-style stencil: rotations, plaintext multiplies,
  // squares, and a polynomial.
  ProgramBuilder B("stencil", 64);
  Expr Img = B.inputCipher("img", 30);
  Expr Ix, Iy;
  const double F[3] = {-1, 0, 1};
  for (int I = 0; I < 3; ++I) {
    Expr Rot = Img << (I * 8);
    Expr H = Rot * B.constant(F[I], 20);
    Expr V = Rot * B.constant(F[2 - I], 20);
    Ix = I == 0 ? H : Ix + H;
    Iy = I == 0 ? V : Iy + V;
  }
  Expr G = Ix * Ix + Iy * Iy;
  B.output("out", G, 30);
  Program &P = B.program();

  Expected<CompiledProgram> CP = compile(P);
  ASSERT_TRUE(CP.ok()) << (CP.ok() ? "" : CP.message());
  std::map<std::string, std::vector<double>> Inputs = randomInputs(P, 71);
  ReferenceExecutor Ref(P);
  std::map<std::string, std::vector<double>> Want = *Ref.run(Inputs);

  Expected<std::shared_ptr<CkksWorkspace>> WS =
      CkksWorkspace::create(*CP, 1000);
  ASSERT_TRUE(WS.ok()) << (WS.ok() ? "" : WS.message());
  std::unique_ptr<CkksExecutor> Exec;
  if (K.Bulk)
    Exec =
        std::make_unique<KernelBulkCkksExecutor>(*CP, WS.value(), K.Threads);
  else
    Exec = std::make_unique<CkksExecutor>(*CP, WS.value(), K.Threads);
  std::map<std::string, std::vector<double>> Got = Exec->runPlain(Inputs);
  EXPECT_LT(maxOutputError(Want, Got), 1e-2);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AllExecutors,
    ::testing::Values(ExecutorKind{"parallel1", false, 1},
                      ExecutorKind{"parallel2", false, 2},
                      ExecutorKind{"parallel4", false, 4},
                      ExecutorKind{"bulk2", true, 2}),
    [](const ::testing::TestParamInfo<ExecutorKind> &I) {
      return std::string(I.param.Name);
    });

TEST(EndToEnd, AllExecutorsProduceIdenticalOutputsOnMultiKernelProgram) {
  // A program with several frontend-tagged kernels (the CHET executor's
  // chunk boundaries), run from the SAME encrypted inputs under the DAG
  // executor at 1 and 4 threads and the kernel-bulk executor at 4 threads.
  // Every CKKS op is exact modular integer arithmetic, so the decrypted
  // outputs must agree bit-for-bit — any divergence means a scheduling race
  // (lost limb, stale operand, retire before last use).
  ProgramBuilder B("kernels", 64);
  Expr X = B.inputCipher("x", 30);
  Expr Y = B.inputCipher("y", 30);
  Expr Conv = B.inKernel([&] {
    Expr Acc = X * B.constant(0.5, 20);
    for (int I = 1; I < 4; ++I)
      Acc = Acc + (X << I) * B.constant(0.25 * I, 20);
    return Acc;
  });
  Expr Square = B.inKernel([&] { return Conv * Conv + Y; });
  Expr Pool = B.inKernel([&] { return Square + (Square << 2); });
  B.output("conv", Conv, 30);
  B.output("pooled", Pool, 30);

  Expected<CompiledProgram> CP = compile(B.program(), CompilerOptions::eva());
  ASSERT_TRUE(CP.ok()) << (CP.ok() ? "" : CP.message());
  Expected<std::shared_ptr<CkksWorkspace>> WS =
      CkksWorkspace::create(*CP, 4242);
  ASSERT_TRUE(WS.ok()) << (WS.ok() ? "" : WS.message());

  std::map<std::string, std::vector<double>> Inputs =
      randomInputs(B.program(), 97);
  CkksExecutor Single(*CP, WS.value(), 1);
  CkksExecutor Parallel(*CP, WS.value(), 4);
  KernelBulkCkksExecutor Bulk(*CP, WS.value(), 4);

  // Encrypt once; every executor consumes the identical ciphertexts.
  SealedInputs Sealed = Single.encryptInputs(Inputs);
  std::map<std::string, Ciphertext> SingleOut = Single.run(Sealed);
  std::map<std::string, Ciphertext> ParallelOut = Parallel.run(Sealed);
  std::map<std::string, Ciphertext> BulkOut = Bulk.run(Sealed);

  ASSERT_EQ(SingleOut.size(), 2u);
  ASSERT_EQ(ParallelOut.size(), 2u);
  ASSERT_EQ(BulkOut.size(), 2u);
  for (const auto &[Name, Ct] : SingleOut) {
    std::vector<double> Want = Single.decryptOutput(Ct);
    ASSERT_TRUE(ParallelOut.count(Name)) << Name;
    ASSERT_TRUE(BulkOut.count(Name)) << Name;
    EXPECT_EQ(Want, Single.decryptOutput(ParallelOut.at(Name)))
        << "parallel executor diverged on " << Name;
    EXPECT_EQ(Want, Single.decryptOutput(BulkOut.at(Name)))
        << "kernel-bulk executor diverged on " << Name;
  }

  // Stats parity: every schedule tracks the live set through the same
  // accounting.
  const CkksExecutor *Execs[] = {&Single, &Parallel, &Bulk};
  for (const CkksExecutor *E : Execs) {
    EXPECT_GT(E->stats().PeakLiveNodes, 0u);
    EXPECT_LE(E->stats().PeakLiveNodes, E->stats().TotalNodeCount);
    EXPECT_GT(E->stats().PeakLiveBytes, 0u);
  }

  // NTT counts are exact per evaluator, so scheduling cannot change them.
  EXPECT_GT(Single.stats().Ntts, 0u);
  EXPECT_EQ(Parallel.stats().Ntts, Single.stats().Ntts);
  EXPECT_EQ(Bulk.stats().Ntts, Single.stats().Ntts);
}

TEST(EndToEnd, ConcurrentRunnersReportExactSoloNtts) {
  // Local runners run concurrently; each must report exactly the NTT count
  // of its solo run every time. Lanes 0 and 1 (a 1-thread and a 2-thread
  // runner, different programs) own separate workspaces: a process-wide
  // counter would fold the other runner's work into theirs. Lanes 2 and 3
  // are two 1-thread runners over ONE shared workspace, the bench and test
  // pattern: an evaluator owned by the workspace would let each run's
  // counter reset wipe out the other's counts.
  ProgramBuilder BA("rotsum", 64);
  Expr X = BA.inputCipher("x", 30);
  Expr Sum = X;
  for (int I = 1; I < 64; I *= 2)
    Sum = Sum + (Sum << I);
  BA.output("out", Sum * X, 30);
  ProgramBuilder BB("cube", 64);
  Expr Y = BB.inputCipher("x", 30);
  BB.output("out", Y * Y * Y, 30);

  Expected<CompiledProgram> SharedCP = compile(BA.program());
  ASSERT_TRUE(SharedCP.ok()) << SharedCP.message();
  Expected<std::shared_ptr<CkksWorkspace>> SharedWS =
      CkksWorkspace::create(*SharedCP, 3);
  ASSERT_TRUE(SharedWS.ok()) << SharedWS.message();

  constexpr size_t Runs = 16;
  struct Lane {
    std::unique_ptr<Runner> R;
    Valuation In;
    uint64_t Solo = 0;
    std::vector<uint64_t> Seen;
  };
  Lane Lanes[4];
  std::vector<double> Ones(64, 0.5);
  for (size_t I = 0; I < 2; ++I) {
    Expected<CompiledProgram> CP = compile(I == 0 ? BA.program()
                                                  : BB.program());
    ASSERT_TRUE(CP.ok()) << CP.message();
    LocalRunnerOptions Opts;
    Opts.Seed = I + 1;
    Opts.Threads = I + 1;
    Expected<std::unique_ptr<Runner>> R = Runner::local(std::move(*CP), Opts);
    ASSERT_TRUE(R.ok()) << R.message();
    Lanes[I].R = std::move(*R);
    Lanes[I].In.set("x", Ones);
  }
  // The shared lanes also encrypt concurrently through the one workspace
  // encryptor (its sampler is serialized).
  for (size_t I = 2; I < 4; ++I) {
    Expected<std::unique_ptr<Runner>> R = Runner::local(*SharedCP, *SharedWS);
    ASSERT_TRUE(R.ok()) << R.message();
    Lanes[I].R = std::move(*R);
    Lanes[I].In.set("x", Ones);
  }
  for (Lane &L : Lanes) {
    ASSERT_TRUE(L.R->run(L.In).ok());
    L.Solo = L.R->executionStats()->Ntts;
    EXPECT_GT(L.Solo, 0u);
  }
  EXPECT_NE(Lanes[0].Solo, Lanes[1].Solo);

  std::vector<std::thread> Threads;
  for (Lane &L : Lanes)
    Threads.emplace_back([&L] {
      for (size_t K = 0; K < Runs; ++K)
        if (L.R->run(L.In).ok())
          L.Seen.push_back(L.R->executionStats()->Ntts);
    });
  for (std::thread &T : Threads)
    T.join();
  for (size_t I = 0; I < 4; ++I) {
    EXPECT_EQ(Lanes[I].Seen.size(), Runs) << "lane " << I;
    for (uint64_t N : Lanes[I].Seen)
      EXPECT_EQ(N, Lanes[I].Solo) << "lane " << I;
  }
}

TEST(EndToEnd, ConcurrentRunnersEncryptOnOneWorkspace) {
  // Two runners over one workspace encrypt plain inputs at the same time:
  // both draw from the workspace encryptor's sampler, which must be
  // serialized (TSan flagged the unsynchronized RNG here). Each result must
  // still decrypt to the reference.
  ProgramBuilder B("square", 64);
  Expr X = B.inputCipher("x", 30);
  B.output("out", X * X, 30);
  Expected<CompiledProgram> CP = compile(B.program());
  ASSERT_TRUE(CP.ok()) << CP.message();
  Expected<std::shared_ptr<CkksWorkspace>> WS = CkksWorkspace::create(*CP, 8);
  ASSERT_TRUE(WS.ok()) << WS.message();

  std::unique_ptr<Runner> Runners[2];
  std::vector<double> Inputs[2] = {std::vector<double>(64, 0.25),
                                   std::vector<double>(64, -0.5)};
  for (std::unique_ptr<Runner> &R : Runners)
    R = std::move(Runner::local(*CP, *WS).value());
  std::vector<double> Worst(2, 0.0);
  std::vector<std::thread> Threads;
  for (size_t I = 0; I < 2; ++I)
    Threads.emplace_back([&, I] {
      for (int K = 0; K < 8; ++K) {
        Expected<Valuation> Out =
            Runners[I]->run(Valuation().set("x", Inputs[I]));
        double Want = Inputs[I][0] * Inputs[I][0];
        for (double V : Out ? Out->vector("out") : std::vector<double>{1e9})
          Worst[I] = std::max(Worst[I], std::abs(V - Want));
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_LT(Worst[0], 1e-3);
  EXPECT_LT(Worst[1], 1e-3);
}

/// y = (x*c1 + (x<<1)*c2 + c3) * 0.5: three vector-constant uses and one
/// scalar constant.
std::unique_ptr<Program> buildConstantsProgram() {
  ProgramBuilder B("consts", 64);
  Expr X = B.inputCipher("x", 30);
  std::vector<double> C1(64), C2(64), C3(64);
  for (size_t I = 0; I < 64; ++I) {
    C1[I] = 0.01 * static_cast<double>(I);
    C2[I] = 1.0 - 0.02 * static_cast<double>(I);
    C3[I] = 0.5 * std::sin(static_cast<double>(I));
  }
  Expr Y = X * B.constantVector(C1, 20) + (X << 1) * B.constantVector(C2, 20);
  B.output("out", (Y + B.constantVector(C3, 20)) * B.constant(0.5, 10), 30);
  return B.take();
}

bool sameBits(const std::map<std::string, Ciphertext> &A,
              const std::map<std::string, Ciphertext> &B) {
  if (A.size() != B.size())
    return false;
  for (const auto &[Name, Ct] : A) {
    auto It = B.find(Name);
    if (It == B.end() || It->second.Scale != Ct.Scale ||
        It->second.Polys.size() != Ct.Polys.size())
      return false;
    for (size_t I = 0; I < Ct.Polys.size(); ++I)
      if (It->second.Polys[I].Comps != Ct.Polys[I].Comps)
        return false;
  }
  return true;
}

TEST(ConstantCache, FirstRunEncodesEachUseLaterRunsNone) {
  std::unique_ptr<Program> P = buildConstantsProgram();
  Expected<CompiledProgram> CP = compile(*P);
  ASSERT_TRUE(CP.ok()) << CP.message();
  std::shared_ptr<CkksWorkspace> WS = CkksWorkspace::create(*CP, 21).value();
  ASSERT_NE(WS->Constants, nullptr);

  CkksExecutor Exec(*CP, WS, 2);
  SealedInputs Sealed = Exec.encryptInputs(randomInputs(*P, 4));
  std::map<std::string, Ciphertext> Run1 = Exec.run(Sealed);
  EXPECT_EQ(Exec.stats().ConstantEncodes, 3u);
  EXPECT_GT(WS->Constants->bytes(), 0u);
  EXPECT_LE(WS->Constants->bytes(), ConstantCache::BudgetBytes);
  std::map<std::string, Ciphertext> Run2 = Exec.run(Sealed);
  EXPECT_EQ(Exec.stats().ConstantEncodes, 0u);

  // A fresh executor on the workspace finds the cache warm.
  CkksExecutor Fresh(*CP, WS);
  std::map<std::string, Ciphertext> Run3 = Fresh.run(Sealed);
  EXPECT_EQ(Fresh.stats().ConstantEncodes, 0u);

  // An executor built while the workspace has no cache encodes every run.
  std::shared_ptr<ConstantCache> Saved = std::move(WS->Constants);
  CkksExecutor Uncached(*CP, WS);
  WS->Constants = Saved;
  std::map<std::string, Ciphertext> Run4 = Uncached.run(Sealed);
  EXPECT_EQ(Uncached.stats().ConstantEncodes, 3u);
  Uncached.run(Sealed);
  EXPECT_EQ(Uncached.stats().ConstantEncodes, 3u);

  // Cached and freshly encoded plaintexts are the same bits, so every run
  // produces the same ciphertext.
  EXPECT_TRUE(sameBits(Run1, Run2));
  EXPECT_TRUE(sameBits(Run1, Run3));
  EXPECT_TRUE(sameBits(Run1, Run4));

  std::map<std::string, std::vector<double>> Want =
      *ReferenceExecutor(*P).run(randomInputs(*P, 4));
  std::map<std::string, std::vector<double>> Got;
  for (const auto &[Name, Ct] : Run2)
    Got.emplace(Name, Exec.decryptOutput(Ct));
  EXPECT_LT(maxOutputError(Want, Got), 1e-3);
}

TEST(ConstantCache, EntriesPastTheBudgetEncodeEveryRun) {
  // 600 distinct weight vectors at N = 8192 need more than the 64 MiB
  // budget: the entries that fit are served, the rest encode every run,
  // and both kinds give the same ciphertext as the first run.
  constexpr size_t Uses = 600;
  ProgramBuilder B("wide", 4096);
  Expr X = B.inputCipher("x", 30);
  Expr Acc;
  for (size_t K = 0; K < Uses; ++K) {
    Expr T = X * B.constantVector(
                     std::vector<double>(4096, 1e-3 * static_cast<double>(K)),
                     20);
    Acc = Acc.valid() ? Acc + T : T;
  }
  B.output("out", Acc, 30);
  Expected<CompiledProgram> CP = compile(B.program());
  ASSERT_TRUE(CP.ok()) << CP.message();
  std::shared_ptr<CkksWorkspace> WS = CkksWorkspace::create(*CP, 24).value();
  CkksExecutor Exec(*CP, WS);
  SealedInputs Sealed = Exec.encryptInputs(randomInputs(B.program(), 8));
  std::map<std::string, Ciphertext> Run1 = Exec.run(Sealed);
  EXPECT_EQ(Exec.stats().ConstantEncodes, Uses);
  std::map<std::string, Ciphertext> Run2 = Exec.run(Sealed);

  size_t EntryBytes = CP->PolyDegree * WS->Context->dataPrimeCount() * 8;
  size_t Stored = WS->Constants->bytes() / EntryBytes;
  EXPECT_LE(WS->Constants->bytes(), ConstantCache::BudgetBytes);
  EXPECT_GT(WS->Constants->bytes() + EntryBytes, ConstantCache::BudgetBytes);
  EXPECT_GT(Stored, 0u);
  EXPECT_LT(Stored, Uses);
  EXPECT_EQ(Exec.stats().ConstantEncodes, Uses - Stored);
  EXPECT_TRUE(sameBits(Run1, Run2));
}

TEST(ConstantCache, ServesOnlyTheProgramItWasBuiltFor) {
  // The same source compiled twice is two programs: a workspace's cache
  // must not serve the other one's node ids.
  std::unique_ptr<Program> P = buildConstantsProgram();
  Expected<CompiledProgram> CP = compile(*P);
  Expected<CompiledProgram> Other = compile(*P);
  ASSERT_TRUE(CP.ok() && Other.ok());
  std::shared_ptr<CkksWorkspace> WS = CkksWorkspace::create(*CP, 22).value();
  CkksExecutor Exec(*Other, WS);
  SealedInputs Sealed = Exec.encryptInputs(randomInputs(*P, 5));
  for (int Run = 0; Run < 2; ++Run) {
    Exec.run(Sealed);
    EXPECT_EQ(Exec.stats().ConstantEncodes, 3u) << "run " << Run;
  }
  EXPECT_EQ(WS->Constants->bytes(), 0u);
}

TEST(ConstantCache, PlainInputVectorsAreNeverCached) {
  // A plain input changes per run: two runs with different vectors must
  // each see their own, never a cached encoding of the first.
  ProgramBuilder B("plainw", 64);
  Expr X = B.inputCipher("x", 30);
  Expr W = B.inputPlain("w", 20);
  B.output("out", X * W + X * B.constantVector(std::vector<double>(64, 0.5), 20),
           30);
  Expected<CompiledProgram> CP = compile(B.program());
  ASSERT_TRUE(CP.ok()) << CP.message();
  Expected<std::unique_ptr<Runner>> R = Runner::local(std::move(*CP));
  ASSERT_TRUE(R.ok()) << R.message();
  for (uint64_t Seed : {31, 32}) {
    std::map<std::string, std::vector<double>> In =
        randomInputs(B.program(), Seed);
    Expected<Valuation> Out =
        (*R)->run(Valuation().set("x", In.at("x")).set("w", In.at("w")));
    ASSERT_TRUE(Out.ok()) << Out.message();
    std::map<std::string, std::vector<double>> Want =
        *ReferenceExecutor(B.program()).run(In);
    EXPECT_LT(maxOutputError(Want, {{"out", Out->vector("out")}}), 1e-3)
        << "seed " << Seed;
    // Only the 0.5 vector is a constant, encoded on the first run alone.
    EXPECT_EQ((*R)->executionStats()->ConstantEncodes, Seed == 31 ? 1u : 0u);
  }
}

TEST(EndToEnd, ConcurrentRunnersShareOneConstantCache) {
  // Four evaluation-only workspaces share one cache, as a registered
  // program's sessions do, and run their first request at the same time:
  // each entry is encoded exactly once across all of them, and every run
  // produces the same ciphertext.
  std::unique_ptr<Program> P = buildConstantsProgram();
  Expected<CompiledProgram> CP = compile(*P);
  ASSERT_TRUE(CP.ok()) << CP.message();
  std::shared_ptr<CkksWorkspace> Client =
      CkksWorkspace::create(*CP, 23).value();
  CkksExecutor Sealer(*CP, Client);
  Ciphertext X = Sealer.encryptInputs(randomInputs(*P, 6)).Cipher.at("x");
  auto Shared = std::make_shared<ConstantCache>(*CP->Prog, Client->Context);

  constexpr size_t Lanes = 4;
  std::unique_ptr<Runner> Runners[Lanes];
  for (std::unique_ptr<Runner> &R : Runners) {
    std::shared_ptr<CkksWorkspace> WS =
        CkksWorkspace::createServer(*CP, Client->Context, Client->Rk,
                                    Client->Gk, Shared)
            .value();
    LocalRunnerOptions Opts;
    Opts.Threads = 2;
    R = std::move(Runner::local(*CP, WS, Opts).value());
  }
  std::map<std::string, Ciphertext> Outs[Lanes][2];
  size_t Encodes[Lanes][2] = {};
  std::vector<std::thread> Threads;
  for (size_t I = 0; I < Lanes; ++I)
    Threads.emplace_back([&, I] {
      for (int Run = 0; Run < 2; ++Run) {
        Expected<Valuation> Out = Runners[I]->run(Valuation().set("x", X));
        if (!Out)
          continue;
        Outs[I][Run].emplace("out", std::get<Ciphertext>(*Out->find("out")));
        Encodes[I][Run] = Runners[I]->executionStats()->ConstantEncodes;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  size_t FirstRunEncodes = 0;
  for (size_t I = 0; I < Lanes; ++I) {
    FirstRunEncodes += Encodes[I][0];
    EXPECT_EQ(Encodes[I][1], 0u) << "lane " << I;
    for (int Run = 0; Run < 2; ++Run)
      EXPECT_TRUE(sameBits(Outs[0][0], Outs[I][Run]))
          << "lane " << I << " run " << Run;
  }
  EXPECT_EQ(FirstRunEncodes, 3u);
}

TEST(EndToEnd, MemoryReuseBoundsLiveCiphertexts) {
  // A long chain should retire intermediates: peak live nodes must stay far
  // below the node count (Section 6.1's retire rule).
  ProgramBuilder B("chain", 64);
  Expr X = B.inputCipher("x", 40);
  Expr V = X;
  for (int I = 0; I < 6; ++I)
    V = V * V;
  B.output("out", V, 30);
  Expected<CompiledProgram> CP = compile(B.program());
  ASSERT_TRUE(CP.ok()) << (CP.ok() ? "" : CP.message());
  Expected<std::shared_ptr<CkksWorkspace>> WS =
      CkksWorkspace::create(*CP, 5);
  ASSERT_TRUE(WS.ok()) << (WS.ok() ? "" : WS.message());
  CkksExecutor Exec(*CP, WS.value());
  KernelBulkCkksExecutor Bulk(*CP, WS.value());
  std::map<std::string, std::vector<double>> Inputs = randomInputs(
      B.program(), 3, 0.9, 1.1);
  Exec.runPlain(Inputs);
  Bulk.runPlain(Inputs);
  EXPECT_GT(Exec.stats().TotalNodeCount, 10u);
  EXPECT_LE(Exec.stats().PeakLiveNodes, 4u);
  // The CHET-style baseline never retires, and reports its live set
  // through the same accounting: never zero, and above the DAG's.
  EXPECT_GT(Bulk.stats().PeakLiveNodes, Exec.stats().PeakLiveNodes);
  EXPECT_GT(Bulk.stats().PeakLiveBytes, Exec.stats().PeakLiveBytes);
}

TEST(Reference, MatchesHandComputedValues) {
  ProgramBuilder B("ref", 4);
  Expr X = B.inputCipher("x", 30);
  Expr Y = (X << 1) * X + B.constant(1.0, 30);
  B.output("out", Y, 30);
  ReferenceExecutor Ref(B.program());
  std::map<std::string, std::vector<double>> Out =
      *Ref.run({{"x", {1, 2, 3, 4}}});
  // (rot left by 1 of [1,2,3,4]) * [1,2,3,4] + 1 = [2*1+1, 3*2+1, 4*3+1,
  // 1*4+1].
  std::vector<double> Want = {3, 7, 13, 5};
  EXPECT_EQ(Out["out"], Want);
}

TEST(Reference, TransformationPreservesSemantics) {
  // Pid(inputs) == P'id(inputs): compiled graphs are value-equivalent under
  // the id scheme (the MATCH-SCALE constant multiplies by 1.0, RESCALE and
  // MODSWITCH are identities).
  for (uint64_t Seed : {1u, 2u, 3u}) {
    ProgramBuilder B("sem", 128);
    Expr X = B.inputCipher("x", 30);
    Expr Y = B.inputCipher("y", 20);
    Expr V = (X * X + Y) * (X << 7) + B.sumSlots(Y) - X.pow(3);
    B.output("out", V, 30);
    Program &P = B.program();
    for (const CompilerOptions &O :
         {CompilerOptions::eva(), CompilerOptions::chet()}) {
      Expected<CompiledProgram> CP = compile(P, O);
      ASSERT_TRUE(CP.ok()) << (CP.ok() ? "" : CP.message());
      std::map<std::string, std::vector<double>> Inputs =
          randomInputs(P, Seed);
      ReferenceExecutor Ref(P), RefCompiled(*CP->Prog);
      double Err =
          maxOutputError(*Ref.run(Inputs), *RefCompiled.run(Inputs));
      EXPECT_LT(Err, 1e-9);
    }
  }
}

} // namespace
