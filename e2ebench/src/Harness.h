//===- Harness.h - Shared machinery of the end-to-end benchmark -*- C++ -*-===//
///
/// \file
/// What every workload shares: the command line, the result record the
/// benchmark prints, order statistics, process resource counters, the span
/// recorder used by traced runs, and the host/build stamp.
///
//===----------------------------------------------------------------------===//

#ifndef E2EBENCH_HARNESS_H
#define E2EBENCH_HARNESS_H

#include "eva/support/ThreadAnnotations.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Where the traced run writes its Chrome trace-event JSON.
  std::string TracePath;
};

/// Seconds on the steady clock since the first call in this process.
double now();

/// Nearest-rank percentile (\p Q in [0, 1]) of \p V; V must be non-empty.
double percentile(std::vector<double> V, double Q);
double median(std::vector<double> V);

/// getrusage(RUSAGE_SELF) snapshot.
struct ProcUsage {
  double UserSeconds = 0, SysSeconds = 0;
  double MinorFaults = 0;
  double PeakRssMiB = 0;
  static ProcUsage sample();
};

/// One metric of the final result line.
struct Metric {
  double Value = 0;
  std::string Unit;
};

/// The outcome of one workload run: requests attempted and failed (a wrong
/// output is a failure), the metrics of the requested mode, and the
/// per-metric sample counts printed alongside.
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// False when a check outside the request loop failed (oracle, count
  /// determinism, trace reconciliation).
  bool ChecksPassed = true;
  std::map<std::string, Metric> Metrics;
  std::map<std::string, uint64_t> Samples;
  /// Workload-specific facts for the stamp (thread budget, tail percentile).
  std::map<std::string, std::string> Notes;

  void set(const std::string &Name, double Value, const std::string &Unit,
           uint64_t SampleCount = 1) {
    Metrics[Name] = {Value, Unit};
    Samples[Name] = SampleCount;
  }
  /// Records a failed check: prints \p What to stderr and marks the run
  /// incorrect.
  void fail(const std::string &What);
};

/// The latency metrics shared by all workloads, from the untraced request
/// samples of one run: p50, the workload's fixed tail percentile, and
/// completed requests per second of measured wall time.
void setLatencyMetrics(Result &R, const std::vector<double> &Latencies,
                       double TailQuantile, double WallSeconds);

/// The per-request process metrics of a traced run (proc.*): CPU and
/// kernel seconds and minor page faults between \p Before and \p After,
/// divided by the \p Completed requests.
void setProcMetrics(Result &R, const ProcUsage &Before, const ProcUsage &After,
                    uint64_t Completed);

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// One recorded interval. Parent is an index into the tracer's span list
/// (-1 for a request's root span).
struct Span {
  std::string Name;
  double Start = 0, End = 0;
  int Parent = -1;
  uint64_t Request = 0;
  uint64_t Thread = 0;
};

/// In-memory span store of a traced run. Spans nest through a per-thread
/// stack of open spans; recording is enabled per thread, so a traced run can
/// alternate traced and untraced requests to measure the tracer's overhead.
class Tracer {
public:
  static Tracer &get();

  /// Turns recording on or off for the calling thread.
  static void setThreadEnabled(bool On);

  /// Opens a span under the calling thread's innermost open span (a zero
  /// \p Request inherits the parent's); returns its index, or -1 when the
  /// thread is not recording.
  int open(const std::string &Name, uint64_t Request);
  void close(int Index);
  /// Records an already-measured interval under the span \p Parent (used
  /// for phases the library times internally); returns its index, or -1
  /// when the thread is not recording.
  int add(const std::string &Name, double Start, double End, int Parent);

  std::vector<Span> spans() const EVA_EXCLUDES(Mu);
  /// Writes the spans as Chrome trace-event JSON.
  bool writeChromeTrace(const std::string &Path) const EVA_EXCLUDES(Mu);

private:
  mutable eva::Mutex Mu;
  std::vector<Span> Spans EVA_GUARDED_BY(Mu);
};

/// RAII span on the calling thread (no-op when it is not recording).
class ScopedSpan {
public:
  ScopedSpan(const std::string &Name, uint64_t Request)
      : Index(Tracer::get().open(Name, Request)) {}
  ~ScopedSpan() { Tracer::get().close(Index); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  int Index;
};

/// Per-layer attribution of a traced run. Each span's self time is its
/// duration minus the union of its children. A request's root span is named
/// "request" and holds one "api.client" span around Runner::run, whose
/// children are the phases the library and the transport time. The
/// unattributed gap of a request is the self time of those two spans: the
/// part of its wall time that no timed phase accounts for.
struct TraceSummary {
  /// Mean self seconds per traced request, by span name.
  std::map<std::string, double> SelfPerRequest;
  size_t Requests = 0;
  /// Mean and worst unattributed share of a request's wall time.
  double MeanGapShare = 0, WorstGapShare = 0;
};
TraceSummary summarize(const std::vector<Span> &Spans);

/// Emits the trace-mode bookkeeping shared by every workload: per-layer
/// self times for \p Layers (zero when a layer is absent), the
/// reconciliation gap (a failed check above 5%), the tracing overhead from
/// the traced vs untraced request latencies, and writes the trace file.
void finishTrace(Result &R, const Options &O,
                 const std::vector<std::string> &Layers,
                 const std::vector<double> &TracedLatencies,
                 const std::vector<double> &UntracedLatencies);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

Result runMlpLocal(const Options &O);
Result runTenantsService(const Options &O);

/// Every per-layer metric name with its unit; a traced run reports all of
/// them, zero for layers its workload does not touch.
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/// Host and build facts printed with every result.
std::map<std::string, std::string> hostStamp();

/// Times NttTables::forward at \p PolyDegree (median seconds per call).
double timeNttForward(uint64_t PolyDegree);

} // namespace e2e

#endif // E2EBENCH_HARNESS_H
