#include "inputs.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <utility>

#include "wum/clf/clf_writer.h"
#include "wum/clf/log_filter.h"
#include "wum/clf/user_partitioner.h"
#include "wum/common/random.h"
#include "wum/eval/experiment.h"
#include "wum/session/smart_sra.h"
#include "wum/simulator/server_log_collector.h"
#include "wum/simulator/workload.h"

namespace perfbench {
namespace {

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The engine-side cleaning chain (websra_serve's in-engine filters).
bool Kept(const wum::LogRecord& record) {
  static const wum::MethodFilter method;
  static const wum::StatusFilter status;
  static const wum::ExtensionFilter extension;
  return method.Keep(record) && status.Keep(record) && extension.Keep(record);
}

}  // namespace

std::vector<WorkloadSpec> Workloads(bool quick) {
  const std::size_t scale = quick ? 25 : 1;
  std::vector<WorkloadSpec> table;
  WorkloadSpec replay;
  replay.name = "replay";
  replay.agents = 10000 / scale;
  replay.why =
      "Flat-out file replay of the Table-5 population: parse, offer, queue "
      "hand-off, emit hub and sink do nearly all the work; net, ckpt, mine "
      "and obs do none. The 1-shard arm isolates emit-hub and queue "
      "contention from per-record cost.";
  table.push_back(replay);

  WorkloadSpec serve;
  serve.name = "serve";
  serve.agents = 10000 / scale;
  serve.agents_per_proxy = 64;
  serve.start_window_s = 24 * 3600;
  serve.daemon = true;
  serve.mining = true;
  serve.checkpoint_every = quick ? 2000 : 100000;
  serve.why =
      "Shared proxies make long Smart-SRA candidates and skewed hot keys; "
      "the poll loop, checkpoint barrier and miner are on the path, which "
      "replay bypasses.";
  table.push_back(serve);

  WorkloadSpec live;
  live.name = "live";
  live.agents = 10000 / scale;
  live.rate = quick ? 20000 : 100000;
  // Sent record by record, the system under test wakes every few
  // records, and its CPU time per record follows the host's wake-up
  // cost, which on a shared virtual machine swung by 1.7x between runs
  // of the same code. One burst per 2 ms (200 records at the full rate)
  // keeps the pacing to the log's event-time gaps at that resolution.
  live.tick_ns = 2'000'000;
  live.daemon = true;
  live.metrics = true;
  live.why =
      "Open-loop arrivals at a fixed rate far below the limit, with "
      "GET /metrics scraped every 25 ms on the ingest poll loop: "
      "ingest-to-emit freshness and read/write contention.";
  table.push_back(live);
  return table;
}

std::uint64_t HashKey(std::string_view key) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : key) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  return Mix(h);
}

void Digest::Add(std::uint64_t user_hash, const wum::Session& session) {
  std::uint64_t h = Mix(user_hash ^ session.requests.size());
  for (const wum::PageRequest& request : session.requests) {
    h = Mix(h ^ request.page);
    h = Mix(h ^ static_cast<std::uint64_t>(request.timestamp));
  }
  sum += h;
  ++sessions;
}

wum::Result<Inputs> Generate(const WorkloadSpec& spec, std::uint64_t seed,
                             std::size_t connections) {
  Inputs inputs;
  inputs.spec = spec;
  // The site is part of the workload's definition, so it comes from a
  // fixed seed; --seed varies the visitor population. A per-run site
  // would add topology-driven cost swings to every run-to-run spread.
  wum::Rng site_rng(kSiteSeed);
  WUM_ASSIGN_OR_RETURN(inputs.graph,
                       wum::GenerateSite(wum::TopologyModel::kUniform,
                                         wum::SiteGeneratorOptions{},
                                         &site_rng));
  wum::Rng rng(seed);
  wum::WorkloadOptions population;
  population.num_agents = spec.agents;
  population.agents_per_proxy = spec.agents_per_proxy;
  population.start_window = spec.start_window_s;
  WUM_ASSIGN_OR_RETURN(wum::Workload workload,
                       wum::SimulateWorkload(inputs.graph, wum::AgentProfile{},
                                             population, &rng));
  inputs.log = wum::CollectServerLog(workload.ToAgentRequests());
  if (inputs.log.empty()) {
    return wum::Status::InvalidArgument("workload produced no records");
  }

  std::ostringstream out;
  wum::ClfWriter writer(&out);
  for (const wum::LogRecord& record : inputs.log) writer.Write(record);
  inputs.text = std::move(out).str();
  inputs.line_end.reserve(inputs.log.size());
  const char* base = inputs.text.data();
  const char* cursor = base;
  const char* end = base + inputs.text.size();
  while (cursor < end) {
    const void* newline = std::memchr(cursor, '\n', end - cursor);
    cursor = newline == nullptr ? end : static_cast<const char*>(newline) + 1;
    inputs.line_end.push_back(static_cast<std::uint64_t>(cursor - base));
  }
  if (inputs.line_end.size() != inputs.log.size()) {
    return wum::Status::Internal("CLF rendering changed the line count");
  }

  if (spec.daemon) {
    inputs.streams.assign(connections, std::string());
    inputs.stream_line_ends.assign(connections, {});
    inputs.conn.resize(inputs.log.size());
    inputs.conn_end.resize(inputs.log.size());
    std::uint64_t start = 0;
    for (std::size_t i = 0; i < inputs.log.size(); ++i) {
      // Whole users per connection keeps per-user FIFO order.
      const std::size_t c = HashKey(inputs.log[i].client_ip) % connections;
      std::string& stream = inputs.streams[c];
      stream.append(inputs.text, start, inputs.line_end[i] - start);
      inputs.conn[i] = static_cast<std::uint8_t>(c);
      inputs.conn_end[i] = stream.size();
      inputs.stream_line_ends[c].push_back(stream.size());
      start = inputs.line_end[i];
    }
  }

  if (spec.rate > 0) {
    // Event-time gaps, compressed so the mean rate is spec.rate, on a
    // grid of spec.tick_ns.
    const std::int64_t tick = std::max<std::int64_t>(spec.tick_ns, 1);
    const double n = static_cast<double>(inputs.log.size());
    const std::int64_t t0 = inputs.log.front().timestamp;
    const std::int64_t span = inputs.log.back().timestamp - t0;
    inputs.due_ns.resize(inputs.log.size());
    for (std::size_t i = 0; i < inputs.log.size(); ++i) {
      const double fraction =
          span > 0 ? static_cast<double>(inputs.log[i].timestamp - t0) /
                         static_cast<double>(span)
                   : static_cast<double>(i) / n;
      const auto due =
          static_cast<std::int64_t>(fraction * n / spec.rate * 1e9);
      inputs.due_ns[i] = (due + tick - 1) / tick * tick;
    }
  }
  return inputs;
}

wum::Result<Reference> BuildReference(const Inputs& inputs) {
  Reference reference;
  reference.lines = inputs.log.size();
  wum::FilterChain chain = wum::FilterChain::Standard();
  const std::vector<wum::LogRecord> cleaned = chain.Apply(inputs.log);
  WUM_ASSIGN_OR_RETURN(
      wum::PartitionResult partition,
      wum::PartitionByUser(cleaned, inputs.graph.num_pages(),
                           wum::UserIdentity::kClientIp));
  const wum::SmartSra smart_sra(&inputs.graph);
  for (const wum::UserStream& user : partition.streams) {
    WUM_ASSIGN_OR_RETURN(std::vector<wum::Session> sessions,
                         smart_sra.Reconstruct(user.requests));
    const std::uint64_t user_hash = HashKey(user.user_key);
    for (const wum::Session& session : sessions) {
      reference.digest.Add(user_hash, session);
    }
  }

  // Phase-1 candidates in log order, exactly as IncrementalSmartSra
  // closes them: a record more than max_page_stay after the previous
  // one, or more than max_session_duration after the candidate's first,
  // closes the open candidate.
  const wum::TimeThresholds thresholds = smart_sra.options().thresholds;
  struct Open {
    std::int64_t first = 0;
    std::int64_t last = 0;
  };
  std::unordered_map<std::uint64_t, Open> open;
  for (std::size_t i = 0; i < inputs.log.size(); ++i) {
    const wum::LogRecord& record = inputs.log[i];
    if (!Kept(record) || !wum::PageFromUrl(record.url).ok()) continue;
    const std::uint64_t user = HashKey(record.client_ip);
    std::vector<Candidate>& list = reference.candidates[user];
    auto [it, fresh] = open.try_emplace(user, Open{record.timestamp,
                                                   record.timestamp});
    if (!fresh && (record.timestamp - it->second.last >
                       thresholds.max_page_stay ||
                   record.timestamp - it->second.first >
                       thresholds.max_session_duration)) {
      list.back().trigger = static_cast<std::int64_t>(i);
      it->second = Open{record.timestamp, record.timestamp};
      fresh = true;
    }
    if (fresh) {
      list.push_back(Candidate{record.timestamp, -1});
    } else {
      it->second.last = record.timestamp;
    }
  }
  return reference;
}

}  // namespace perfbench
