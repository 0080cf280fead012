//===- bench_common.h - Shared helpers for the table/figure benches -*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Common plumbing for the benchmark binaries that regenerate the paper's
/// tables and figures. Environment knobs:
///   EVA_BENCH_FULL=1     run every network at full size (default: the
///                        heavier networks are skipped or compile-only)
///   EVA_BENCH_THREADS=k  max thread count for the scaling sweeps
///
//===----------------------------------------------------------------------===//

#ifndef EVA_BENCH_COMMON_H
#define EVA_BENCH_COMMON_H

#include "eva/api/Runner.h"
#include "eva/runtime/CkksExecutor.h"
#include "eva/support/Timer.h"
#include "eva/tensor/Network.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace evabench {

inline bool fullMode() {
  const char *V = std::getenv("EVA_BENCH_FULL");
  return V != nullptr && V[0] == '1';
}

/// Ceiling for the scaling sweeps (points past the core count are
/// deliberately oversubscribed to show the schedule gap). Clamped to
/// [1, 256]: a hostile or mistyped EVA_BENCH_THREADS (e.g. -1, which casts
/// to 2^64-1) would otherwise both overflow the sweep loop and ask for
/// absurd pool sizes.
inline size_t maxThreads() {
  if (const char *V = std::getenv("EVA_BENCH_THREADS")) {
    int Parsed = std::atoi(V);
    return static_cast<size_t>(std::clamp(Parsed, 1, 256));
  }
  return 8; // the Fig 7 sweep: {1, 2, 4, 8} threads by default
}

/// The Fig 7 thread sweep: {1, 2, 4, 8, ...} up to maxThreads().
inline std::vector<size_t> threadSweep() {
  std::vector<size_t> Threads = {1};
  for (size_t T = 2; T <= maxThreads(); T *= 2)
    Threads.push_back(T);
  return Threads;
}

/// Thread count for benches that run ONE executor (not a sweep): the sweep
/// ceiling clamped to the hardware, so single-point benches never measure
/// oversubscription by default.
inline size_t execThreads() {
  return std::min<size_t>(
      maxThreads(),
      std::max<size_t>(1, std::thread::hardware_concurrency()));
}

/// Encodes an image tensor into the program's slot layout.
inline std::vector<double> imageSlots(const eva::NetworkDefinition &Net,
                                      const eva::Tensor &Image,
                                      size_t VecSize) {
  eva::CipherLayout L = eva::CipherLayout::forImage(
      Net.inputChannels(), Net.inputHeight(), Net.inputWidth());
  std::vector<double> Slots(VecSize, 0.0);
  for (size_t C = 0; C < L.C; ++C)
    for (size_t Y = 0; Y < L.H; ++Y)
      for (size_t X = 0; X < L.W; ++X)
        Slots[L.slotOf(C, Y, X)] = Image.at3(C, Y, X);
  return Slots;
}

/// One compiled network ready to run.
struct PreparedNetwork {
  eva::NetworkDefinition Net;
  std::unique_ptr<eva::Program> Prog;
  eva::CompiledProgram Compiled;
  std::shared_ptr<eva::CkksWorkspace> Workspace;
  double CompileSeconds = 0;
  double ContextSeconds = 0;
};

/// A Runner over a prepared network's shared workspace (benches reuse one
/// expensive key set across executor styles and thread counts). \p PN must
/// outlive the runner.
inline std::unique_ptr<eva::Runner>
makeLocalRunner(const PreparedNetwork &PN, eva::LocalStyle Style,
                size_t Threads) {
  eva::LocalRunnerOptions Opts;
  Opts.Threads = Threads;
  Opts.Style = Style;
  eva::Expected<std::unique_ptr<eva::Runner>> R =
      eva::Runner::local(PN.Compiled, PN.Workspace, Opts);
  if (!R)
    eva::fatalError("bench: " + R.message());
  return std::move(R.value());
}

/// Compiles \p Net with \p Options and builds keys. Returns false (with a
/// message) on failure.
inline bool prepare(eva::NetworkDefinition Net,
                    const eva::CompilerOptions &Options, PreparedNetwork &Out,
                    bool WithContext = true) {
  eva::TensorScales Scales;
  Out.Net = std::move(Net);
  Out.Prog = Out.Net.buildProgram(Scales);
  eva::Timer CompileT;
  eva::Expected<eva::CompiledProgram> CP = eva::compile(*Out.Prog, Options);
  Out.CompileSeconds = CompileT.seconds();
  if (!CP) {
    std::fprintf(stderr, "%s: compile error: %s\n", Out.Net.name().c_str(),
                 CP.message().c_str());
    return false;
  }
  Out.Compiled = std::move(CP.value());
  if (!WithContext)
    return true;
  eva::Timer ContextT;
  eva::Expected<std::shared_ptr<eva::CkksWorkspace>> WS =
      eva::CkksWorkspace::create(Out.Compiled, 1234);
  Out.ContextSeconds = ContextT.seconds();
  if (!WS) {
    std::fprintf(stderr, "%s: context error: %s\n", Out.Net.name().c_str(),
                 WS.message().c_str());
    return false;
  }
  Out.Workspace = WS.value();
  return true;
}

//===----------------------------------------------------------------------===//
// JSON benchmark reporting (the BENCH_*.json perf trajectory)
//===----------------------------------------------------------------------===//

/// One measured operation. Times are wall-clock seconds per iteration.
/// SpeedupVs1 is mean(1 thread) / mean(this), recorded for thread-sweep
/// results (0 means "not part of a sweep" and is omitted from the JSON).
/// SamplesInMean < Iterations records that the mean excluded outlier
/// iterations (see measure()).
struct BenchResult {
  std::string Op;
  size_t Threads = 1;
  size_t Iterations = 0;
  size_t SamplesInMean = 0;
  double MeanSeconds = 0;
  double MinSeconds = 0;
  double SpeedupVs1 = 0;
  /// Throughput results (the service bench) also carry requests/second
  /// (0 means "not a throughput result" and is omitted from the JSON).
  double Rps = 0;
  /// Size results (the rotation bench's key-upload payloads) carry a byte
  /// count; 0 omits the field.
  double Bytes = 0;
  /// Rotation-cost results carry the run's key-switch decomposition count
  /// (ExecutionStats::KeySwitchDecompositions); 0 omits the field.
  double Decompositions = 0;
  /// Matvec-kernel results also carry the run's plaintext multiplies and
  /// the compiled program's Galois-key count; 0 omits each field.
  double PlainMultiplies = 0;
  double GaloisKeys = 0;
  /// Evaluator NTTs of one operation (EvaluatorCounters::Ntts); 0 omits
  /// the field.
  double Ntts = 0;
};

/// Samples \p Fn — a callable reporting its own per-iteration duration in
/// seconds (e.g. a Runner's compute-phase time, excluding encrypt and
/// decrypt) — at least \p MinIters times and until \p MinTotalSeconds of
/// reported time have accumulated, and reports the per-iteration mean and
/// min. With >= 3 iterations the single slowest one is excluded from the
/// mean (not the min): on shared/virtualized hosts a co-tenant burst can
/// inflate one iteration by 50%, which would otherwise dominate a
/// small-sample mean and fake a regression at whichever sweep point it
/// lands on.
template <typename FnT>
inline BenchResult measureSeconds(const std::string &Op, FnT &&Fn,
                                  size_t MinIters = 3,
                                  double MinTotalSeconds = 0.2) {
  BenchResult R;
  R.Op = Op;
  double Total = 0;
  double Min = 0;
  double Max = 0;
  size_t Iters = 0;
  while (Iters < MinIters || Total < MinTotalSeconds) {
    double S = Fn();
    Total += S;
    Min = Iters == 0 ? S : std::min(Min, S);
    Max = Iters == 0 ? S : std::max(Max, S);
    ++Iters;
    if (Iters >= 1000000)
      break;
  }
  R.Iterations = Iters;
  R.SamplesInMean = Iters >= 3 ? Iters - 1 : Iters;
  R.MeanSeconds = Iters >= 3 ? (Total - Max) / static_cast<double>(Iters - 1)
                             : Total / static_cast<double>(Iters);
  R.MinSeconds = Min;
  return R;
}

/// Wall-clock flavour: times each call of \p Fn itself. Same sampling and
/// outlier trimming as measureSeconds.
template <typename FnT>
inline BenchResult measure(const std::string &Op, FnT &&Fn,
                           size_t MinIters = 3, double MinTotalSeconds = 0.2) {
  return measureSeconds(
      Op,
      [&Fn] {
        eva::Timer T;
        Fn();
        return T.seconds();
      },
      MinIters, MinTotalSeconds);
}

/// Accumulates BenchResults and serializes them as a schema-stable JSON
/// document:
///
/// \code
///   {
///     "schema": "eva-bench-v1",
///     "suite": "micro",
///     "git_sha": "abc123",
///     "unit": "seconds",
///     "results": [
///       {"op": "ntt_forward_n8192", "threads": 1, "iterations": 12,
///        "samples_in_mean": 11, "mean_seconds": 1.5e-3,
///        "min_seconds": 1.4e-3}
///     ]
///   }
/// \endcode
///
/// samples_in_mean < iterations means the slowest iteration was excluded
/// from the mean (measure()'s outlier trim); thread-sweep results also
/// carry "speedup_vs_1thread".
class JsonReport {
public:
  JsonReport(std::string Suite, std::string GitSha)
      : Suite(std::move(Suite)), GitSha(std::move(GitSha)) {}

  /// Rejects statistically impossible rows at the source: a minimum taken
  /// over the same sample population as the mean can never exceed it, so a
  /// violating row means two different populations were mixed (the bug that
  /// once shipped min > mean rows in BENCH_service.json).
  void add(BenchResult R) {
    if (R.MinSeconds > R.MeanSeconds)
      eva::fatalError("bench: impossible result for op '" + R.Op +
                      "': min_seconds " + std::to_string(R.MinSeconds) +
                      " > mean_seconds " + std::to_string(R.MeanSeconds));
    Results.push_back(std::move(R));
  }

  bool empty() const { return Results.empty(); }

  std::string str() const {
    std::string Out;
    Out += "{\n";
    Out += "  \"schema\": \"eva-bench-v1\",\n";
    Out += "  \"suite\": \"" + escape(Suite) + "\",\n";
    Out += "  \"git_sha\": \"" + escape(GitSha) + "\",\n";
    Out += "  \"unit\": \"seconds\",\n";
    Out += "  \"results\": [\n";
    for (size_t I = 0; I < Results.size(); ++I) {
      const BenchResult &R = Results[I];
      char Buf[320];
      std::snprintf(Buf, sizeof(Buf),
                    "    {\"op\": \"%s\", \"threads\": %zu, "
                    "\"iterations\": %zu, \"samples_in_mean\": %zu, "
                    "\"mean_seconds\": %.9g, \"min_seconds\": %.9g",
                    escape(R.Op).c_str(), R.Threads, R.Iterations,
                    R.SamplesInMean, R.MeanSeconds, R.MinSeconds);
      Out += Buf;
      if (R.SpeedupVs1 > 0) {
        std::snprintf(Buf, sizeof(Buf), ", \"speedup_vs_1thread\": %.4g",
                      R.SpeedupVs1);
        Out += Buf;
      }
      if (R.Rps > 0) {
        std::snprintf(Buf, sizeof(Buf), ", \"requests_per_second\": %.4g",
                      R.Rps);
        Out += Buf;
      }
      if (R.Bytes > 0) {
        std::snprintf(Buf, sizeof(Buf), ", \"bytes\": %.0f", R.Bytes);
        Out += Buf;
      }
      if (R.Decompositions > 0) {
        std::snprintf(Buf, sizeof(Buf), ", \"decompositions\": %.0f",
                      R.Decompositions);
        Out += Buf;
      }
      if (R.PlainMultiplies > 0) {
        std::snprintf(Buf, sizeof(Buf), ", \"plain_multiplies\": %.0f",
                      R.PlainMultiplies);
        Out += Buf;
      }
      if (R.GaloisKeys > 0) {
        std::snprintf(Buf, sizeof(Buf), ", \"galois_keys\": %.0f",
                      R.GaloisKeys);
        Out += Buf;
      }
      if (R.Ntts > 0) {
        std::snprintf(Buf, sizeof(Buf), ", \"ntts\": %.0f", R.Ntts);
        Out += Buf;
      }
      Out += I + 1 == Results.size() ? "}\n" : "},\n";
    }
    Out += "  ]\n";
    Out += "}\n";
    return Out;
  }

  /// Writes the document to \p Path. Returns false on I/O failure.
  bool write(const std::string &Path) const {
    std::ofstream Out(Path, std::ios::binary);
    if (!Out)
      return false;
    Out << str();
    return static_cast<bool>(Out);
  }

private:
  static std::string escape(const std::string &S) {
    std::string E;
    for (char C : S) {
      if (C == '"' || C == '\\')
        E += '\\';
      E += C;
    }
    return E;
  }

  std::string Suite;
  std::string GitSha;
  std::vector<BenchResult> Results;
};

} // namespace evabench

#endif // EVA_BENCH_COMMON_H
