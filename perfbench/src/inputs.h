// Workload definitions, input generation and the reference computation
// the correctness gate compares every measured iteration against.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "wum/clf/log_record.h"
#include "wum/common/result.h"
#include "wum/session/session.h"
#include "wum/topology/web_graph.h"

namespace perfbench {

/// Every workload's site: the paper's uniform topology model (300
/// pages, Table-5 defaults) from websra_simulate's default seed.
constexpr const char* kTopology = "uniform";
constexpr std::uint64_t kSiteSeed = 20060102;

/// One workload: the simulator parameters that make its input, how the
/// input is delivered, and why the workload exists.
struct WorkloadSpec {
  std::string name;
  std::size_t agents = 10000;
  std::size_t agents_per_proxy = 1;
  std::int64_t start_window_s = 7 * 24 * 3600;
  /// Open-loop send rate in records/s; 0 = flat out (closed loop).
  double rate = 0;
  /// Open-loop send quantum: due times are rounded up to a multiple of
  /// it, so the generator sends one burst per tick.
  std::int64_t tick_ns = 0;
  bool daemon = false;           // LogServer over loopback, else file path
  bool mining = false;           // MinerOptions defaults (top-10, 2..3)
  bool metrics = false;          // MetricRegistry + GET /metrics scraper
  std::uint64_t checkpoint_every = 0;  // admin CHECKPOINT cadence, records
  std::string why;
};

/// The workload table; `quick` shrinks every population for self-tests.
std::vector<WorkloadSpec> Workloads(bool quick);

/// Order-insensitive digest of a multiset of (user, session) pairs: a
/// wrapping sum of per-session 64-bit hashes, plus the count.
struct Digest {
  std::uint64_t sum = 0;
  std::uint64_t sessions = 0;
  void Add(std::uint64_t user_hash, const wum::Session& session);
  bool operator==(const Digest&) const = default;
};

std::uint64_t HashKey(std::string_view key);

/// Phase-1 candidate of one user: sessions from it all start inside
/// [first_ts, next candidate's first_ts) and are emitted when the
/// trigger record (the user's next record, which closes the candidate)
/// is processed; trigger < 0 means only the end-of-stream flush closes
/// it.
struct Candidate {
  std::int64_t first_ts = 0;
  std::int64_t trigger = -1;
};

/// Everything a set-up produces.
struct Inputs {
  WorkloadSpec spec;
  wum::WebGraph graph{0};
  std::vector<wum::LogRecord> log;
  /// The CLF rendering of `log`, one line per record.
  std::string text;
  /// Byte offset one past the end of each record's line in `text`.
  std::vector<std::uint64_t> line_end;
  /// Daemon workloads: connection of each record (users split by IP)
  /// and the byte offset one past its line inside that connection's
  /// stream; `streams` holds each connection's bytes.
  std::vector<std::uint8_t> conn;
  std::vector<std::uint64_t> conn_end;
  std::vector<std::string> streams;
  /// Per connection: the end offset of each of its lines, in order.
  std::vector<std::vector<std::uint64_t>> stream_line_ends;
  /// Open-loop schedule: due offset of each record from the start.
  std::vector<std::int64_t> due_ns;
};

/// The reference computation and the latency index, built once.
struct Reference {
  Digest digest;
  std::uint64_t lines = 0;
  /// User-key hash -> that user's candidates in time order.
  std::unordered_map<std::uint64_t, std::vector<Candidate>> candidates;
};

/// Generates a workload's input from `seed` (simulation, CLF text,
/// connection split, schedule) — everything set-up does before the
/// engine starts.
wum::Result<Inputs> Generate(const WorkloadSpec& spec, std::uint64_t seed,
                             std::size_t connections);

/// Batch Smart-SRA over the cleaned records (the same method, status
/// and extension filters the engine runs) plus the candidate index.
wum::Result<Reference> BuildReference(const Inputs& inputs);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
