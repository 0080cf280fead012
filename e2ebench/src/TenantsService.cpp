//===- TenantsService.cpp - Workload: two tenants against the service -----===//
//
// An in-process Service behind a ServiceServer on an ephemeral 127.0.0.1
// port (the code evaserve runs) with two scheduler workers and one executor
// thread per session. Two tenants with distinct key seeds each drive
// Runner::remote over their own SocketTransport in a closed loop. The
// program is the Table 8 linear-regression fit over 2048 encrypted samples
// (examples/regressions.cpp); it outputs num and den, and the client divides.
// The timed load is service, serialize and api (framing, scheduling) plus a
// rotation-heavy ckks mix.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "eva/api/Runner.h"
#include "eva/core/Compiler.h"
#include "eva/frontend/Expr.h"
#include "eva/service/Client.h"
#include "eva/service/Server.h"
#include "eva/support/Random.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <optional>
#include <thread>

using namespace e2e;
using namespace eva;

namespace {

const uint64_t Samples = 2048;
const size_t Tenants = 2, Datasets = 4;
const char *ProgramName = "linear_regression";

/// The linear-regression fit of examples/regressions.cpp.
std::unique_ptr<Program> buildRegression() {
  ProgramBuilder B(ProgramName, Samples);
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

/// One exchange as the client saw it.
struct Exchange {
  MessageType Type;
  size_t RequestBytes, ResponseBytes;
  double Start, End;
};

/// Wraps a tenant's SocketTransport: times every exchange and records
/// payload bytes per message type. Used by one tenant thread at a time.
class CountingTransport : public Transport {
public:
  explicit CountingTransport(std::unique_ptr<SocketTransport> Inner)
      : Inner(std::move(Inner)) {}

  Expected<Frame> roundTrip(MessageType Type,
                            std::string_view Payload) override {
    double Start = now();
    Expected<Frame> F = Inner->roundTrip(Type, Payload);
    Log.push_back(
        {Type, Payload.size(), F ? F->Payload.size() : 0, Start, now()});
    return F;
  }

  std::vector<Exchange> Log;

private:
  std::unique_ptr<SocketTransport> Inner;
};

/// A running deployment: service, server, and the tenants' transports and
/// runners (declared in teardown order: runners close first).
struct Deployment {
  std::unique_ptr<Service> Svc;
  /// The program as the registry compiled and serves it.
  std::shared_ptr<const RegisteredProgram> Served;
  std::unique_ptr<ServiceServer> Server;
  std::vector<std::unique_ptr<CountingTransport>> Transports;
  std::vector<std::unique_ptr<Runner>> Runners;

  ~Deployment() {
    Runners.clear();
    Transports.clear();
    if (Server)
      Server->stop();
  }
};

std::unique_ptr<Deployment> deploy(const Program &P, uint64_t Seed,
                                   Result &R) {
  auto D = std::make_unique<Deployment>();
  ServiceConfig Config;
  Config.Scheduler.Workers = 2;
  Config.ExecThreadsPerSession = 1;
  D->Svc = std::make_unique<Service>(Config);
  if (Status S = D->Svc->registry().registerSource(P); !S.ok()) {
    R.fail("register failed: " + S.message());
    return nullptr;
  }
  D->Served = D->Svc->registry().find(ProgramName);
  D->Server = std::make_unique<ServiceServer>(*D->Svc);
  if (Status S = D->Server->start(0); !S.ok()) {
    R.fail("server start failed: " + S.message());
    return nullptr;
  }
  for (size_t T = 0; T < Tenants; ++T) {
    Expected<std::unique_ptr<SocketTransport>> Sock =
        SocketTransport::connectLoopback(D->Server->port());
    if (!Sock) {
      R.fail("connect failed: " + Sock.message());
      return nullptr;
    }
    D->Transports.push_back(
        std::make_unique<CountingTransport>(std::move(*Sock)));
    RemoteRunnerOptions Opts;
    Opts.KeySeed = Seed * Tenants + T + 1;
    Expected<std::unique_ptr<Runner>> Run =
        Runner::remote(*D->Transports.back(), ProgramName, Opts);
    if (!Run) {
      R.fail("open session failed: " + Run.message());
      return nullptr;
    }
    D->Runners.push_back(std::move(*Run));
  }
  return D;
}

struct Dataset {
  std::vector<double> X, Y;
  double Slope = 0; ///< closed form over the same inputs
};

Dataset makeDataset(RandomSource &Rng) {
  Dataset D;
  double A = Rng.uniformReal(0.25, 1.0), B = Rng.uniformReal(-0.5, 0.5);
  double Sx = 0, Sy = 0, Sxy = 0, Sxx = 0;
  for (uint64_t I = 0; I < Samples; ++I) {
    double X = Rng.uniformReal(-1, 1);
    double Y = A * X + B + Rng.uniformReal(-0.05, 0.05);
    D.X.push_back(X);
    D.Y.push_back(Y);
    Sx += X, Sy += Y, Sxy += X * Y, Sxx += X * X;
  }
  double N = static_cast<double>(Samples);
  D.Slope = (N * Sxy - Sx * Sy) / (N * Sxx - Sx * Sx);
  return D;
}

/// The oracle: the client-side division of the decrypted num/den against
/// the closed-form slope of the same inputs.
bool slopeMatches(const Valuation &Out, const Dataset &DS, double Tolerance) {
  double Slope = Out.vector("num")[0] / Out.vector("den")[0];
  return std::abs(Slope - DS.Slope) <= Tolerance * std::abs(DS.Slope);
}

/// \p After - \p Before of one span histogram (counts and sums are
/// cumulative, so the difference is the histogram of the interval).
HistogramSnapshot histogramDelta(const MetricsSnapshot &Before,
                                 const MetricsSnapshot &After,
                                 const std::string &Name) {
  const HistogramSnapshot *A = After.histogram(Name);
  const HistogramSnapshot *B = Before.histogram(Name);
  if (!A)
    return {};
  HistogramSnapshot D = *A;
  if (B && B->Buckets.size() == D.Buckets.size()) {
    for (size_t I = 0; I < D.Buckets.size(); ++I)
      D.Buckets[I] -= B->Buckets[I];
    D.Count -= B->Count;
    D.Sum -= B->Sum;
  }
  return D;
}

/// The compiled counts that must repeat exactly between compiles.
bool sameCounts(const CompiledProgram &A, const CompiledProgram &B) {
  return A.TotalModulusBits == B.TotalModulusBits &&
         A.RotationSteps == B.RotationSteps &&
         A.Prog->nodeCount() == B.Prog->nodeCount();
}

Expected<MetricsSnapshot> scrape(Service &Svc) {
  InProcessTransport T(Svc);
  return ServiceClient(T).getMetrics();
}

} // namespace

Result e2e::runTenantsService(const Options &O) {
  Result R;
  const int SetupReps = 9;
  // The encrypted fit matches the closed-form slope to ~1e-5; 1e-3
  // relative flags a wrong result, not CKKS noise.
  const double Tolerance = 1e-3;
  // ~430 requests fit in a 50 s run; p97 leaves about thirteen beyond it.
  const double TailQuantile = 0.97;
  // A seed's varint is at most 10 bytes and each request carries two; any
  // larger change in a request's or response's payload is not determinism.
  const size_t VarintSlack = 2 * 10;
  R.Notes["threads"] = "2 tenant clients, 2 scheduler workers x 1 exec thread";
  R.Notes["oracle_tolerance_rel"] = "1e-3";

  // The program compiled on its own, several times: the median is the
  // core layer's compile time, and every compile must agree on the counts.
  std::unique_ptr<Program> P = buildRegression();
  std::optional<CompiledProgram> CP;
  std::vector<double> CompileTimes;
  for (int I = 0; I < SetupReps; ++I) {
    double Start = now();
    Expected<CompiledProgram> Again = compile(*P, CompilerOptions::eva());
    CompileTimes.push_back(now() - Start);
    if (!Again) {
      R.fail("compile failed: " + Again.message());
      return R;
    }
    if (!CP)
      CP = std::move(*Again);
    else if (!sameCounts(*Again, *CP))
      R.fail("compiled parameters differ between compiles (determinism "
             "check)");
  }

  RandomSource Rng(O.Seed);
  std::vector<std::vector<Dataset>> Data(Tenants);
  for (std::vector<Dataset> &PerTenant : Data)
    for (size_t I = 0; I < Datasets; ++I)
      PerTenant.push_back(makeDataset(Rng));

  // Set-up: service start, program registration (compile), server start,
  // and per tenant: connect, key generation and OPEN_SESSION upload. This
  // deployment serves the run; the repeats that make setup_s a median run
  // after the timed loop, so peak_rss_mb is one deployment's.
  double SetupStart = now();
  std::unique_ptr<Deployment> D = deploy(*P, O.Seed, R);
  std::vector<double> SetupTimes{now() - SetupStart};
  if (!D)
    return R;
  if (!sameCounts(D->Served->CP, *CP))
    R.fail("the served program's parameters differ from the benchmark's "
           "compile (determinism check)");
  double KeyUploadBytes = 0, OpenSessionSeconds = 0;
  for (const auto &T : D->Transports)
    for (const Exchange &E : T->Log)
      if (E.Type == MessageType::OpenSession) {
        KeyUploadBytes += static_cast<double>(E.RequestBytes) / Tenants;
        OpenSessionSeconds += (E.End - E.Start) / Tenants;
      }

  // Warm-up: one request per tenant, checked but not timed.
  for (size_t T = 0; T < Tenants; ++T) {
    const Dataset &DS = Data[T][0];
    Expected<Valuation> Out =
        D->Runners[T]->run(Valuation().set("x", DS.X).set("y", DS.Y));
    if (!Out || !slopeMatches(*Out, DS, Tolerance))
      R.fail("warm-up request failed or disagrees with the closed form");
  }
  for (const auto &T : D->Transports)
    T->Log.clear();

  Expected<MetricsSnapshot> Before = scrape(*D->Svc);
  SchedulerStats SchedBefore = D->Svc->schedulerStats();
  ProcUsage UsageBefore = ProcUsage::sample();
  std::atomic<uint64_t> NextRequest{0}, Attempted{0}, Failed{0};
  std::vector<std::vector<double>> Latencies(Tenants), Traced(Tenants);
  double LoopStart = now(), Deadline = LoopStart + O.Seconds;
  std::vector<std::thread> Clients;
  for (size_t T = 0; T < Tenants; ++T)
    Clients.emplace_back([&, T] {
      Runner &Run = *D->Runners[T];
      for (uint64_t I = 0; now() < Deadline; ++I) {
        const Dataset &DS = Data[T][I % Datasets];
        bool TraceThis = O.Trace && I % 2 == 0;
        uint64_t Request = ++NextRequest;
        Valuation In = Valuation().set("x", DS.X).set("y", DS.Y);
        Tracer::setThreadEnabled(TraceThis);
        ++Attempted;
        int Root = Tracer::get().open("request", Request);
        int Api = Tracer::get().open("api.client", Request);
        double Start = now();
        Expected<Valuation> Out = Run.run(In);
        double End = now();
        Runner::Timing Tm = Run.lastTiming();
        // run() times encrypt, submit and decrypt back to back and last;
        // they become children of the api span ending where run() returned.
        // Submit's own time, outside the socket exchange, is the client's
        // request serialization and response parsing.
        double Decrypt = End - Tm.DecryptSeconds;
        double Submit = Decrypt - Tm.ComputeSeconds;
        Tracer::get().add("ckks.encrypt", Submit - Tm.EncryptSeconds, Submit,
                          Api);
        int Serialize =
            Tracer::get().add("serialize.client", Submit, Decrypt, Api);
        const std::vector<Exchange> &Log = D->Transports[T]->Log;
        if (Serialize >= 0 && !Log.empty() &&
            Log.back().Type == MessageType::Execute)
          Tracer::get().add("service.roundtrip", Log.back().Start,
                            Log.back().End, Serialize);
        Tracer::get().add("ckks.decrypt", Decrypt, End, Api);
        Tracer::get().close(Api);
        bool Ok = Out && slopeMatches(*Out, DS, Tolerance);
        if (!Ok)
          std::fprintf(stderr, "e2ebench: request %llu failed: %s\n",
                       static_cast<unsigned long long>(Request),
                       Out ? "slope disagrees with the closed form"
                           : Out.message().c_str());
        Tracer::get().close(Root);
        Tracer::setThreadEnabled(false);
        if (!Ok) {
          ++Failed;
          continue;
        }
        (TraceThis ? Traced : Latencies)[T].push_back(End - Start);
      }
    });
  for (std::thread &C : Clients)
    C.join();
  double Wall = now() - LoopStart;
  ProcUsage UsageAfter = ProcUsage::sample();
  Expected<MetricsSnapshot> After = scrape(*D->Svc);
  SchedulerStats SchedAfter = D->Svc->schedulerStats();
  R.Attempted = Attempted;
  R.Failed = Failed;
  for (int I = 1; I < SetupReps; ++I) {
    double Start = now();
    std::unique_ptr<Deployment> Again = deploy(*P, O.Seed, R);
    if (!Again)
      return R;
    SetupTimes.push_back(now() - Start);
    if (!sameCounts(Again->Served->CP, *CP))
      R.fail("the served program's parameters differ between set-ups "
             "(determinism check)");
  }
  R.set("setup_s", median(SetupTimes), "s", SetupTimes.size());

  std::vector<double> AllLatencies, AllTraced;
  for (size_t T = 0; T < Tenants; ++T) {
    AllLatencies.insert(AllLatencies.end(), Latencies[T].begin(),
                        Latencies[T].end());
    AllTraced.insert(AllTraced.end(), Traced[T].begin(), Traced[T].end());
  }
  if (AllLatencies.empty()) {
    R.fail("no request completed");
    return R;
  }

  // Wire bytes of the measured EXECUTE exchanges; each must match the
  // first up to the seed varints.
  double RequestBytes = 0, ResponseBytes = 0, Executes = 0;
  const Exchange *First = nullptr;
  for (const auto &T : D->Transports)
    for (const Exchange &E : T->Log) {
      if (E.Type != MessageType::Execute)
        continue;
      if (!First)
        First = &E;
      auto Off = [&](size_t A, size_t B) {
        return (A > B ? A - B : B - A) > VarintSlack;
      };
      if (Off(E.RequestBytes, First->RequestBytes) ||
          Off(E.ResponseBytes, First->ResponseBytes))
        R.fail("EXECUTE payload sizes differ between requests (determinism "
               "check)");
      RequestBytes += E.RequestBytes;
      ResponseBytes += E.ResponseBytes;
      ++Executes;
    }
  if (Executes == 0) {
    R.fail("no EXECUTE exchange recorded");
    return R;
  }
  RequestBytes /= Executes;
  ResponseBytes /= Executes;

  if (!Before || !After) {
    R.fail("metrics scrape failed");
    return R;
  }
  // Executor counters per request. Every request runs the same program, so
  // each counter's delta over the loop must split evenly over the requests.
  uint64_t Completed = R.Attempted - R.Failed;
  const std::pair<const char *, const char *> Counters[] = {
      {"runtime.key_switches", "eva_exec_keyswitch_decompositions_total"},
      {"runtime.rotations", "eva_exec_rotations_total"},
      {"runtime.hoisted_rotations", "eva_exec_hoisted_rotations_total"},
      {"runtime.multiplies", "eva_exec_multiplies_total"},
      {"runtime.relinearizations", "eva_exec_relinearizations_total"},
      {"runtime.rescales", "eva_exec_rescales_total"},
  };
  std::map<std::string, double> PerRequest;
  for (const auto &[Metric, Counter] : Counters) {
    uint64_t Delta =
        After->counterValue(Counter) - Before->counterValue(Counter);
    if (Completed && Delta % Completed != 0)
      R.fail(std::string(Counter) + " is not a whole multiple of the " +
             "request count (determinism check)");
    PerRequest[Metric] =
        Completed ? static_cast<double>(Delta / Completed) : 0;
  }

  if (!O.Trace) {
    setLatencyMetrics(R, AllLatencies, TailQuantile, Wall);
    R.set("peak_rss_mb", UsageAfter.PeakRssMiB, "MiB");
    R.set("modulus_bits", CP->TotalModulusBits, "bits");
    R.set("galois_keys", CP->RotationSteps.size(), "count");
    R.set("key_upload_mb", KeyUploadBytes / (1 << 20), "MiB",
          static_cast<uint64_t>(Tenants));
    R.set("wire_kb_per_req", (RequestBytes + ResponseBytes) / 1024, "KiB",
          static_cast<uint64_t>(Executes));
    return R;
  }

  for (const auto &[Metric, Value] : PerRequest)
    R.set(Metric, Value, "count", Completed);
  const std::pair<const char *, const char *> SpanHistograms[] = {
      {"service.decode", "eva_request_decode_seconds"},
      {"service.queue_wait", "eva_request_queue_seconds"},
      {"service.execute", "eva_request_execute_seconds"},
      {"service.encode", "eva_request_encode_seconds"},
  };
  for (const auto &[Metric, Histogram] : SpanHistograms) {
    HistogramSnapshot H = histogramDelta(*Before, *After, Histogram);
    R.set(std::string(Metric) + "_s", H.mean(), "s", H.Count);
    R.set(std::string(Metric) + "_p95_s", H.quantile(0.95), "s", H.Count);
  }
  // The server-side executor run is the runtime layer's compute here.
  R.Metrics["runtime.compute_s"] = R.Metrics["service.execute_s"];
  R.Samples["runtime.compute_s"] = R.Samples["service.execute_s"];
  R.set("service.batches", SchedAfter.Batches - SchedBefore.Batches, "count");
  R.set("service.failed", SchedAfter.Failed - SchedBefore.Failed, "count");
  R.set("service.rejected", SchedAfter.Rejected - SchedBefore.Rejected,
        "count");
  R.set("service.open_session_s", OpenSessionSeconds, "s", Tenants);
  R.set("serialize.key_upload_bytes", KeyUploadBytes, "B", Tenants);
  R.set("serialize.request_bytes", RequestBytes, "B", Executes);
  R.set("serialize.response_bytes", ResponseBytes, "B", Executes);
  R.set("math.ntt_forward_s", timeNttForward(CP->PolyDegree), "s");
  R.set("core.compile_s", median(CompileTimes), "s", CompileTimes.size());
  R.set("core.nodes_out", CP->Prog->nodeCount(), "count");
  setProcMetrics(R, UsageBefore, UsageAfter, Completed);
  finishTrace(
      R, O,
      {"api.client", "ckks.encrypt", "serialize.client", "service.roundtrip",
       "ckks.decrypt"},
      AllTraced, AllLatencies);
  return R;
}
