// One measured iteration of a front door, and what it shares with the
// others: engine configuration, the correctness gate, the latency
// computation and the per-shard layer breakdown.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "histogram.h"
#include "inputs.h"
#include "probes.h"
#include "spans.h"
#include "wum/obs/metrics.h"
#include "wum/stream/dead_letter.h"
#include "wum/stream/engine.h"

namespace perfbench {

/// Shard count of every measured arm but the single-shard baseline:
/// nproc - 1 on a 4-core machine, so the ingest/poll thread keeps a core.
constexpr std::size_t kShards = 3;
/// Producer connections of the daemon workloads.
constexpr std::size_t kConnections = 3;

struct Context {
  const Inputs* inputs = nullptr;
  const Reference* reference = nullptr;
  /// Scratch directory of this run (the CLF file, checkpoints).
  std::string work_dir;
  std::string log_path;
  Sampler* sampler = nullptr;
  AccRegistry* accs = nullptr;
  SpanLog* spans = nullptr;
  BenchSink* sink = nullptr;
};

struct Iteration {
  std::size_t shards = kShards;
  bool traced = false;
  /// First byte offered until Finish (file) or the QUIESCE reply
  /// (daemon) returned.
  double wall_s = 0;
  /// Process CPU time over the same interval.
  double cpu_s = 0;
  /// Mean of the calibrations just before and just after the iteration
  /// (see calibrate.h).
  double calibration_ns = 0;
  /// Peak RssAnon during the iteration minus its value after set-up.
  double peak_mem_mb = 0;
  std::uint64_t lines = 0;
  /// Operations attempted (lines, admin commands, scrapes) and failed
  /// (lines lost or mangled, refused commands, failed scrapes).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Correctness-gate violations; empty means the iteration passed.
  std::vector<std::string> problems;
  /// Trigger-record due time to the sink's Accept, flush emissions
  /// excluded.
  LatencyHistogram emit_latency_ms;
  LatencyHistogram scrape_ms;
  LatencyHistogram send_lag_ms;
  /// Per-layer values of this iteration (see README.md).
  std::map<std::string, double> layer;
};

/// Engine options as the front doors build them: in-engine method,
/// status and extension filters, Smart-SRA (wrapped in
/// TimedSessionizer when `traced`), optional mining and metrics.
wum::EngineOptions EngineOptionsFor(const Context& ctx, std::size_t shards,
                                    bool traced,
                                    wum::DeadLetterQueue* dead_letters,
                                    wum::obs::MetricRegistry* registry);

/// Compares the sink's digest with the reference and fills
/// emit_latency_ms; `due_ns(record)` is when that record was due.
void CheckSessionsAndLatency(
    const Context& ctx, const std::function<std::int64_t(std::size_t)>& due_ns,
    Iteration* it);

/// Per-shard layer breakdown from the ThreadAccs and engine stats.
void FillShardLayers(const Context& ctx, const wum::StreamEngine& engine,
                     const EngineSamples& samples, Iteration* it);

/// Time of the first delivery that covered byte `end` of its stream.
std::int64_t DeliveredAt(const std::vector<Delivery>& deliveries,
                         std::uint64_t end);

Iteration RunReplay(const Context& ctx, std::size_t shards, bool traced);
Iteration RunDaemon(const Context& ctx, std::size_t shards, bool traced);

double Percentile(std::vector<double> values, double q);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
