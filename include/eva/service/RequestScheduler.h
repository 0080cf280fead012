//===- eva/service/RequestScheduler.h - Request queue/batching --*- C++ -*-===//
//
// Part of the EVA-CKKS project (PLDI 2020 "EVA" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Queues encrypted requests and executes them on session executors,
/// returning futures. Worker threads drain the queue in FIFO batches (one
/// lock acquisition and one wakeup per batch, not per request), so bursts
/// from many tenants amortize scheduling overhead; each drain claims at
/// most a fair share of the queue (ceil(depth / workers), capped at
/// MaxBatch), so requests of different sessions run concurrently across
/// workers while a per-session mutex keeps each tenant's requests ordered.
/// Inside a request, the session's CkksExecutor schedules the instruction
/// DAG over its cooperative thread pool — the scheduler worker participates
/// in that schedule rather than blocking (with one execution thread it is
/// the only thread that runs the request's nodes). A bounded queue provides
/// backpressure: submissions beyond MaxQueueDepth are rejected outright
/// rather than accepted into an unbounded backlog.
///
//===----------------------------------------------------------------------===//

#ifndef EVA_SERVICE_REQUESTSCHEDULER_H
#define EVA_SERVICE_REQUESTSCHEDULER_H

#include "eva/service/Session.h"
#include "eva/support/Telemetry.h"
#include "eva/support/ThreadAnnotations.h"

#include <chrono>
#include <deque>
#include <future>
#include <thread>
#include <vector>

namespace eva {

struct SchedulerConfig {
  /// Concurrent requests in flight (across sessions).
  size_t Workers = 2;
  /// Submissions beyond this many queued requests are rejected.
  size_t MaxQueueDepth = 256;
  /// Max requests a worker claims per queue drain.
  size_t MaxBatch = 8;
};

struct SchedulerStats {
  uint64_t Submitted = 0;
  uint64_t Completed = 0;
  uint64_t Failed = 0;   ///< requests whose execution threw
  uint64_t Rejected = 0; ///< backpressure rejections
  uint64_t Batches = 0;  ///< queue drains that claimed >= 1 request
};

class RequestScheduler {
public:
  using Result = Expected<std::map<std::string, Ciphertext>>;

  /// \p Metrics, when non-null, receives queue-depth/throughput/queue-wait
  /// telemetry (see support/Telemetry.h); null disables recording.
  explicit RequestScheduler(SchedulerConfig Config = {},
                            MetricsRegistry *Metrics = nullptr);
  ~RequestScheduler();

  RequestScheduler(const RequestScheduler &) = delete;
  RequestScheduler &operator=(const RequestScheduler &) = delete;

  /// Enqueues one request; the future resolves when it executed (or carries
  /// the failure diagnostic). Fails immediately when the queue is full.
  /// \p Trace, when non-null, must stay alive until the future resolves
  /// (the submitter blocks on it); the worker fills the queue-wait span and
  /// hands the context to the session before resolving the promise.
  Expected<std::future<Result>> submit(std::shared_ptr<Session> S,
                                       SealedInputs Inputs,
                                       TraceContext *Trace = nullptr)
      EVA_EXCLUDES(M);

  /// Blocks until every queued request has completed.
  void drain() EVA_EXCLUDES(M);

  SchedulerStats stats() const EVA_EXCLUDES(M);

private:
  struct Request {
    std::shared_ptr<Session> S;
    SealedInputs Inputs;
    std::promise<Result> Promise;
    TraceContext *Trace = nullptr;
    std::chrono::steady_clock::time_point EnqueueTime;
  };

  void workerLoop() EVA_EXCLUDES(M);

  SchedulerConfig Config;
  MetricsRegistry *Metrics;
  /// Lock order: M is acquired after SessionManager::M (never holds a
  /// session's ExecMutex; workers call Session::execute unlocked).
  mutable Mutex M;
  CondVar QueueCv;
  CondVar IdleCv;
  std::deque<Request> Queue EVA_GUARDED_BY(M);
  size_t InFlight EVA_GUARDED_BY(M) = 0;
  bool Stopping EVA_GUARDED_BY(M) = false;
  SchedulerStats Stats EVA_GUARDED_BY(M);
  std::vector<std::thread> Workers;
};

} // namespace eva

#endif // EVA_SERVICE_REQUESTSCHEDULER_H
