//===- Harness.cpp - Shared machinery of the end-to-end benchmark ---------===//

#include "Harness.h"

#include "eva/math/Modulus.h"
#include "eva/math/NTT.h"
#include "eva/math/Primes.h"
#include "eva/math/Simd.h"
#include "eva/support/Common.h"
#include "eva/support/Random.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

using namespace e2e;

double e2e::now() {
  static const std::chrono::steady_clock::time_point Origin =
      std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Origin)
      .count();
}

double e2e::percentile(std::vector<double> V, double Q) {
  std::sort(V.begin(), V.end());
  size_t Rank =
      static_cast<size_t>(std::ceil(Q * static_cast<double>(V.size())));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

double e2e::median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

ProcUsage ProcUsage::sample() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  ProcUsage P;
  P.UserSeconds = U.ru_utime.tv_sec + U.ru_utime.tv_usec * 1e-6;
  P.SysSeconds = U.ru_stime.tv_sec + U.ru_stime.tv_usec * 1e-6;
  P.MinorFaults = static_cast<double>(U.ru_minflt);
  P.PeakRssMiB = static_cast<double>(U.ru_maxrss) / 1024.0; // KiB on Linux
  return P;
}

void e2e::setProcMetrics(Result &R, const ProcUsage &Before,
                         const ProcUsage &After, uint64_t Completed) {
  double N = static_cast<double>(std::max<uint64_t>(Completed, 1));
  R.set("proc.cpu_s_per_req",
        (After.UserSeconds + After.SysSeconds - Before.UserSeconds -
         Before.SysSeconds) / N, "s", Completed);
  R.set("proc.sys_s_per_req", (After.SysSeconds - Before.SysSeconds) / N, "s",
        Completed);
  R.set("proc.minor_faults_per_req",
        (After.MinorFaults - Before.MinorFaults) / N, "count", Completed);
}

void Result::fail(const std::string &What) {
  std::fprintf(stderr, "e2ebench: CHECK FAILED: %s\n", What.c_str());
  ChecksPassed = false;
}

void e2e::setLatencyMetrics(Result &R, const std::vector<double> &Latencies,
                            double TailQuantile, double WallSeconds) {
  uint64_t N = Latencies.size();
  R.set("latency_p50_s", median(Latencies), "s", N);
  R.set("latency_tail_s", percentile(Latencies, TailQuantile), "s", N);
  R.set("throughput_rps", static_cast<double>(N) / WallSeconds, "1/s", N);
  char Q[16];
  std::snprintf(Q, sizeof Q, "p%g", TailQuantile * 100);
  R.Notes["tail_percentile"] = Q;
  size_t Beyond = N - static_cast<size_t>(std::ceil(TailQuantile * N));
  R.Notes["tail_samples_beyond"] = std::to_string(Beyond);
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

namespace {
thread_local bool ThreadTracing = false;
thread_local std::vector<int> OpenStack;

uint64_t threadOrdinal() {
  static std::atomic<uint64_t> Next{1};
  thread_local uint64_t Mine = Next.fetch_add(1);
  return Mine;
}
} // namespace

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

void Tracer::setThreadEnabled(bool On) { ThreadTracing = On; }

int Tracer::open(const std::string &Name, uint64_t Request) {
  if (!ThreadTracing)
    return -1;
  Span S;
  S.Name = Name;
  S.Parent = OpenStack.empty() ? -1 : OpenStack.back();
  S.Request = Request;
  S.Thread = threadOrdinal();
  int Index;
  {
    eva::LockGuard L(Mu);
    if (S.Request == 0 && S.Parent >= 0)
      S.Request = Spans[S.Parent].Request;
    Index = static_cast<int>(Spans.size());
    Spans.push_back(std::move(S));
  }
  OpenStack.push_back(Index);
  double Start = now(); // after the bookkeeping, so it is not attributed
  eva::LockGuard L(Mu);
  Spans[Index].Start = Start;
  return Index;
}

void Tracer::close(int Index) {
  if (Index < 0)
    return;
  double End = now();
  OpenStack.pop_back();
  eva::LockGuard L(Mu);
  Spans[Index].End = End;
}

int Tracer::add(const std::string &Name, double Start, double End,
                int Parent) {
  if (!ThreadTracing)
    return -1;
  Span S;
  S.Name = Name;
  S.Start = Start;
  S.End = End;
  S.Parent = Parent;
  S.Thread = threadOrdinal();
  eva::LockGuard L(Mu);
  if (Parent >= 0)
    S.Request = Spans[Parent].Request;
  Spans.push_back(std::move(S));
  return static_cast<int>(Spans.size()) - 1;
}

std::vector<Span> Tracer::spans() const {
  eva::LockGuard L(Mu);
  return Spans;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::vector<Span> All = spans();
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "{\"traceEvents\":[";
  for (size_t I = 0; I < All.size(); ++I) {
    const Span &S = All[I];
    char Buf[384];
    std::snprintf(Buf, sizeof Buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"request\":%llu}}",
                  I ? "," : "", S.Name.c_str(),
                  static_cast<unsigned long long>(S.Thread), S.Start * 1e6,
                  (S.End - S.Start) * 1e6, I, S.Parent,
                  static_cast<unsigned long long>(S.Request));
    Out << Buf;
  }
  Out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(Out);
}

TraceSummary e2e::summarize(const std::vector<Span> &Spans) {
  std::vector<std::vector<int>> Children(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    if (Spans[I].Parent >= 0)
      Children[Spans[I].Parent].push_back(static_cast<int>(I));

  TraceSummary T;
  std::map<std::string, double> SelfTotal;
  // Per request: the root span's duration and the unattributed self time.
  std::map<uint64_t, std::pair<double, double>> Wall;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    // Union of the children's intervals, clipped to the span.
    std::vector<std::pair<double, double>> Iv;
    for (int C : Children[I])
      Iv.emplace_back(std::max(Spans[C].Start, S.Start),
                      std::min(Spans[C].End, S.End));
    std::sort(Iv.begin(), Iv.end());
    double Covered = 0, Reach = S.Start;
    for (auto [Lo, Hi] : Iv) {
      Lo = std::max(Lo, Reach);
      if (Hi > Lo) {
        Covered += Hi - Lo;
        Reach = Hi;
      }
    }
    double Duration = S.End - S.Start;
    double Self = std::max(0.0, Duration - Covered);
    SelfTotal[S.Name] += Self;
    if (S.Parent < 0)
      Wall[S.Request].first = Duration;
    if (S.Name == "request" || S.Name == "api.client")
      Wall[S.Request].second += Self;
  }
  T.Requests = Wall.size();
  if (T.Requests == 0)
    return T;
  double GapShareSum = 0;
  for (const auto &[Request, DurationGap] : Wall) {
    auto [Duration, Gap] = DurationGap;
    double Share = Duration > 0 ? Gap / Duration : 1;
    GapShareSum += Share;
    T.WorstGapShare = std::max(T.WorstGapShare, Share);
  }
  for (const auto &[Name, Total] : SelfTotal)
    T.SelfPerRequest[Name] = Total / static_cast<double>(T.Requests);
  T.MeanGapShare = GapShareSum / static_cast<double>(T.Requests);
  return T;
}

void e2e::finishTrace(Result &R, const Options &O,
                      const std::vector<std::string> &Layers,
                      const std::vector<double> &TracedLatencies,
                      const std::vector<double> &UntracedLatencies) {
  TraceSummary T = summarize(Tracer::get().spans());
  for (const std::string &Layer : Layers) {
    auto It = T.SelfPerRequest.find(Layer);
    R.set(Layer + "_s", It == T.SelfPerRequest.end() ? 0.0 : It->second, "s",
          T.Requests);
  }
  R.set("trace.unattributed_pct", 100 * T.MeanGapShare, "%", T.Requests);
  R.set("trace.unattributed_max_pct", 100 * T.WorstGapShare, "%", T.Requests);
  if (T.Requests == 0)
    R.fail("traced run recorded no requests");
  else if (T.WorstGapShare > 0.05)
    R.fail("traced per-layer self times cover only " +
           std::to_string(100 * (1 - T.WorstGapShare)) +
           "% of a request's wall time (need >= 95%)");

  double Overhead = 0;
  if (!TracedLatencies.empty() && !UntracedLatencies.empty())
    Overhead =
        100 * (median(TracedLatencies) / median(UntracedLatencies) - 1);
  R.set("trace.overhead_pct", Overhead, "%",
        std::min(TracedLatencies.size(), UntracedLatencies.size()));

  if (!O.TracePath.empty() && !Tracer::get().writeChromeTrace(O.TracePath))
    R.fail("cannot write trace file " + O.TracePath);
  R.Notes["trace_file"] = O.TracePath;
}

const std::vector<std::pair<std::string, std::string>> &e2e::perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> M = {
      {"tensor.build_s", "s"},
      {"tensor.nodes", "count"},
      {"core.compile_s", "s"},
      {"core.nodes_out", "count"},
      {"ckks.encrypt_s", "s"},
      {"ckks.decrypt_s", "s"},
      {"runtime.compute_s", "s"},
      {"runtime.key_switches", "count"},
      {"runtime.rotations", "count"},
      {"runtime.hoisted_rotations", "count"},
      {"runtime.multiplies", "count"},
      {"runtime.plain_multiplies", "count"},
      {"runtime.relinearizations", "count"},
      {"runtime.rescales", "count"},
      {"runtime.mod_switches", "count"},
      {"runtime.peak_live_mb", "MiB"},
      {"math.ntt_forward_s", "s"},
      {"proc.cpu_s_per_req", "s"},
      {"proc.sys_s_per_req", "s"},
      {"proc.minor_faults_per_req", "count"},
      {"serialize.key_upload_bytes", "B"},
      {"serialize.request_bytes", "B"},
      {"serialize.response_bytes", "B"},
      {"serialize.client_s", "s"},
      {"service.roundtrip_s", "s"},
      {"service.open_session_s", "s"},
      {"service.decode_s", "s"},
      {"service.decode_p95_s", "s"},
      {"service.queue_wait_s", "s"},
      {"service.queue_wait_p95_s", "s"},
      {"service.execute_s", "s"},
      {"service.execute_p95_s", "s"},
      {"service.encode_s", "s"},
      {"service.encode_p95_s", "s"},
      {"service.batches", "count"},
      {"service.failed", "count"},
      {"service.rejected", "count"},
      {"api.client_s", "s"},
      {"trace.overhead_pct", "%"},
      {"trace.unattributed_pct", "%"},
      {"trace.unattributed_max_pct", "%"},
  };
  return M;
}

//===----------------------------------------------------------------------===//
// Host stamp and the NTT probe
//===----------------------------------------------------------------------===//

std::map<std::string, std::string> e2e::hostStamp() {
  std::map<std::string, std::string> S;
  std::ifstream CpuInfo("/proc/cpuinfo");
  std::string Line;
  S["cpu_model"] = "unknown";
  while (std::getline(CpuInfo, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      S["cpu_model"] =
          Colon == std::string::npos
              ? Line
              : Line.substr(Line.find_first_not_of(' ', Colon + 1));
      break;
    }
  S["online_cores"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  S["simd_level"] = eva::simdLevelName(eva::activeSimdLevel());
#if defined(__clang__)
  S["compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  S["compiler"] = std::string("gcc ") + __VERSION__;
#else
  S["compiler"] = "unknown";
#endif
  S["build_type"] = E2E_BUILD_TYPE;
  S["verify_passes_default"] = std::to_string(E2E_VERIFY_PASSES_DEFAULT);
  const char *Env = std::getenv("EVA_VERIFY_PASSES");
  S["verify_passes_env"] = Env ? Env : "unset";
  S["git_sha"] = E2E_GIT_SHA;
  return S;
}

double e2e::timeNttForward(uint64_t PolyDegree) {
  eva::Expected<std::vector<uint64_t>> Q =
      eva::generateNttPrimes(PolyDegree, 50, 1);
  if (!Q)
    eva::fatalError("e2ebench: no NTT prime: " + Q.message());
  eva::NttTables Tables(PolyDegree, eva::Modulus((*Q)[0]));
  eva::RandomSource Rng(PolyDegree);
  std::vector<uint64_t> Data(PolyDegree);
  for (uint64_t &V : Data)
    V = Rng.uniformBelow((*Q)[0]);
  // Each sample times a batch of transforms, so the clock resolution is
  // small against it; the median of the batches is reported.
  const int Batches = 31, PerBatch = 16;
  std::vector<double> Samples;
  for (int B = 0; B < Batches; ++B) {
    double Start = now();
    for (int I = 0; I < PerBatch; ++I)
      Tables.forward(Data);
    Samples.push_back((now() - Start) / PerBatch);
  }
  return median(Samples);
}
