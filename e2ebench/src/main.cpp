//===- main.cpp - End-to-end benchmark entry point ------------------------===//
//
// Usage:
//   e2ebench --workload <mlp_local|tenants_service>
//            --seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]
//
// Runs one workload for the given measurement time and prints, one per line,
// every metric with its unit and sample count, then a JSON line with the
// host/build stamp, and last the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// per-layer set of a traced run (spans written to the trace file).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace e2e;

namespace {

const std::vector<std::pair<std::string, std::string>> &endToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> M = {
      {"setup_s", "s"},         {"latency_p50_s", "s"},
      {"latency_tail_s", "s"},  {"throughput_rps", "1/s"},
      {"peak_rss_mb", "MiB"},   {"modulus_bits", "bits"},
      {"galois_keys", "count"}, {"key_upload_mb", "MiB"},
      {"wire_kb_per_req", "KiB"},
  };
  return M;
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "<mlp_local|tenants_service> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-file <path>]\n",
               Why);
  return 2;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out + "\"";
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V.c_str(), &End, 10);
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), &End);
    } else if (A == "--trace") {
      O.Trace = std::strtol(V.c_str(), &End, 10) != 0;
    } else if (A == "--trace-file") {
      O.TracePath = V;
    } else {
      return usage(("unknown option " + A).c_str());
    }
    if (End && *End)
      return usage(("malformed value for " + A).c_str());
  }
  if (!HaveWorkload || !(O.Seconds > 0))
    return usage("--workload and a positive --seconds are required");

  Result R;
  if (O.Workload == "mlp_local")
    R = runMlpLocal(O);
  else if (O.Workload == "tenants_service")
    R = runTenantsService(O);
  else
    return usage(("unknown workload " + O.Workload).c_str());

  if (R.Attempted == 0) {
    std::fprintf(stderr, "e2ebench: no request was attempted\n");
    return 1;
  }

  // The printed set is exactly the mode's list. Per-layer metrics of layers
  // the workload never calls are zero; a missing end-to-end metric is a bug.
  const auto &Wanted = O.Trace ? perLayerMetrics() : endToEndMetrics();
  std::map<std::string, Metric> Out;
  for (const auto &[Name, Unit] : Wanted) {
    auto It = R.Metrics.find(Name);
    if (It != R.Metrics.end()) {
      Out[Name] = It->second;
    } else if (O.Trace) {
      Out[Name] = {0.0, Unit};
      R.Samples[Name] = 0;
    } else {
      std::fprintf(stderr, "e2ebench: workload did not report %s\n",
                   Name.c_str());
      return 1;
    }
  }

  std::printf("%-30s %22s %-6s %s\n", "metric", "value", "unit", "samples");
  for (const auto &[Name, M] : Out)
    std::printf("%-30s %22.9g %-6s %" PRIu64 "\n", Name.c_str(), M.Value,
                M.Unit.c_str(), R.Samples[Name]);

  std::map<std::string, std::string> Stamp = hostStamp();
  for (const auto &[K, V] : R.Notes)
    Stamp[K] = V;
  Stamp["workload"] = O.Workload;
  Stamp["seed"] = std::to_string(O.Seed);
  Stamp["seconds"] = std::to_string(O.Seconds);
  Stamp["trace"] = O.Trace ? "1" : "0";
  std::string StampJson = "{\"stamp\": {";
  bool First = true;
  for (const auto &[K, V] : Stamp) {
    StampJson += (First ? "" : ", ") + jsonString(K) + ": " + jsonString(V);
    First = false;
  }
  std::printf("%s}}\n", StampJson.c_str());

  bool Correct = R.ChecksPassed && R.Failed == 0;
  std::string Json = std::string("{\"correct\": ") +
                     (Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(R.Attempted) +
                     ", \"failed\": " + std::to_string(R.Failed) +
                     ", \"metrics\": {";
  First = true;
  for (const auto &[Name, M] : Out) {
    char Buf[64];
    std::snprintf(Buf, sizeof Buf, "%.17g", M.Value);
    Json += (First ? "" : ", ") + jsonString(Name) + ": {\"value\": " + Buf +
            ", \"unit\": " + jsonString(M.Unit) + "}";
    First = false;
  }
  std::printf("%s}}\n", Json.c_str());
  std::fflush(stdout);
  return 0;
}
