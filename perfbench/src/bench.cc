#include "bench.h"

#include <algorithm>
#include <cmath>

#include "wum/clf/log_filter.h"
#include "wum/ingest/driver.h"
#include "wum/mine/path_miner.h"
#include "wum/mine/options.h"

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - lo);
}

wum::EngineOptions EngineOptionsFor(const Context& ctx, std::size_t shards,
                                    bool traced,
                                    wum::DeadLetterQueue* dead_letters,
                                    wum::obs::MetricRegistry* registry) {
  const Inputs& inputs = *ctx.inputs;
  wum::EngineOptions options;
  options.set_num_shards(shards)
      .set_identity(wum::UserIdentity::kClientIp)
      .set_num_pages(inputs.graph.num_pages())
      .set_dead_letters(dead_letters)
      .set_metrics(registry)
      .use_graph(&inputs.graph);
  if (traced) {
    const wum::WebGraph* graph = &inputs.graph;
    AccRegistry* accs = ctx.accs;
    options.use_custom([graph, accs] {
      return std::make_unique<TimedSessionizer>(
          std::make_unique<wum::IncrementalSmartSra>(graph,
                                                     wum::SmartSra::Options{}),
          accs);
    });
  } else {
    options.use_smart_sra(&inputs.graph);
  }
  options.add_filter([] { return std::make_unique<wum::MethodFilter>(); });
  options.add_filter([] { return std::make_unique<wum::StatusFilter>(); });
  options.add_filter([] { return std::make_unique<wum::ExtensionFilter>(); });
  if (inputs.spec.mining) options.set_mining(wum::mine::MinerOptions{});
  return options;
}

std::int64_t DeliveredAt(const std::vector<Delivery>& deliveries,
                         std::uint64_t end) {
  const auto it = std::lower_bound(
      deliveries.begin(), deliveries.end(), end,
      [](const Delivery& d, std::uint64_t value) { return d.end < value; });
  return it == deliveries.end() ? -1 : it->at_ns;
}

void CheckSessionsAndLatency(
    const Context& ctx, const std::function<std::int64_t(std::size_t)>& due_ns,
    Iteration* it) {
  const Digest& got = ctx.sink->digest();
  const Digest& want = ctx.reference->digest;
  if (!(got == want)) {
    it->problems.push_back(
        "session digest differs from batch Smart-SRA: " +
        std::to_string(got.sessions) + " sessions streamed, " +
        std::to_string(want.sessions) + " expected");
  }
  for (const Emission& emission : ctx.sink->emissions()) {
    const auto found = ctx.reference->candidates.find(emission.user_hash);
    if (found == ctx.reference->candidates.end()) continue;
    const std::vector<Candidate>& list = found->second;
    auto cand = std::upper_bound(
        list.begin(), list.end(), emission.first_ts,
        [](std::int64_t ts, const Candidate& c) { return ts < c.first_ts; });
    if (cand == list.begin()) continue;
    --cand;
    if (cand->trigger < 0) continue;  // closed by the end-of-stream flush
    const std::int64_t due = due_ns(static_cast<std::size_t>(cand->trigger));
    if (due < 0) continue;
    it->emit_latency_ms.Add(
        static_cast<double>(emission.accept_ns - due) / 1e6);
  }
}

void FillShardLayers(const Context& ctx, const wum::StreamEngine& engine,
                     const EngineSamples& samples, Iteration* it) {
  const std::vector<wum::EngineStats> shards = engine.ShardStats();
  const wum::EngineStats total = engine.TotalStats();
  double max_in = 0;
  for (const wum::EngineStats& s : shards) {
    max_in = std::max(max_in, static_cast<double>(s.records_in));
  }
  const double mean_in =
      static_cast<double>(total.records_in) / static_cast<double>(shards.size());
  auto& layer = it->layer;
  layer["stream.blocked_enqueues"] = static_cast<double>(total.blocked_enqueues);
  layer["stream.queue_depth_max"] = static_cast<double>(samples.queue_depth_max);
  layer["stream.shard_skew"] = mean_in > 0 ? max_in / mean_in : 0;
  layer["session.sessions_per_record"] =
      total.records_in > 0 ? static_cast<double>(total.sessions_emitted) /
                                 static_cast<double>(total.records_in)
                           : 0;
  layer["sink.bytes"] = static_cast<double>(ctx.sink->bytes());
  it->peak_mem_mb =
      static_cast<double>(samples.rss_peak_above_baseline) / (1024.0 * 1024.0);
  if (engine.mining() != nullptr) {
    layer["mine.sessions_seen"] =
        static_cast<double>(engine.mining()->sessions_seen());
    layer["mine.backlog_max_batches"] =
        static_cast<double>(samples.mining_backlog_max);
  }
  if (!it->traced) return;

  // Worker threads ran OnRequest (records > 0); the end-of-stream flush
  // runs on the thread that called Finish and counts only in the sums.
  double sessionize = 0, emit = 0, sink = 0;
  double max_sessionize = 0, max_emit = 0, worker_busy = 0, worker_emit = 0;
  for (const ThreadAcc& acc : ctx.accs->Collect()) {
    const double self = static_cast<double>(acc.sessionize_ns - acc.emit_ns);
    sessionize += self;
    emit += static_cast<double>(acc.emit_ns);
    sink += static_cast<double>(acc.sink_ns);
    if (acc.records == 0) continue;
    max_sessionize = std::max(max_sessionize, self);
    max_emit = std::max(max_emit, static_cast<double>(acc.emit_ns));
    worker_busy += static_cast<double>(acc.sessionize_ns);
    worker_emit += static_cast<double>(acc.emit_ns);
  }
  const double worker_wall =
      it->wall_s * 1e9 * static_cast<double>(shards.size());
  layer["session.sessionize_s"] = sessionize / 1e9;
  layer["session.sessionize_max_shard_s"] = max_sessionize / 1e9;
  layer["emit.wait_hold_s"] = emit / 1e9;
  layer["emit.max_shard_s"] = max_emit / 1e9;
  layer["emit.share_of_shard"] = worker_wall > 0 ? worker_emit / worker_wall : 0;
  layer["sink.accept_s"] = sink / 1e9;
  layer["shard.other_s"] = std::max(0.0, worker_wall - worker_busy) / 1e9;
}

Iteration RunReplay(const Context& ctx, std::size_t shards, bool traced) {
  Iteration it;
  it.shards = shards;
  it.traced = traced;
  ctx.sink->Clear();
  ctx.accs->Reset();
  SpanLog* spans = traced ? ctx.spans : nullptr;
  const std::size_t first_span = traced ? spans->size() : 0;

  auto fail = [&it](const std::string& what, const wum::Status& status) {
    it.problems.push_back(what + ": " + status.ToString());
    return it;
  };
  wum::Result<std::unique_ptr<wum::StreamEngine>> created =
      wum::StreamEngine::Create(
          EngineOptionsFor(ctx, shards, traced, nullptr, nullptr), ctx.sink);
  if (!created.ok()) return fail("engine", created.status());
  std::unique_ptr<wum::StreamEngine> engine = std::move(*created);
  wum::Result<wum::ingest::FileSource> file =
      wum::ingest::FileSource::Open(ctx.log_path);
  if (!file.ok()) return fail("open", file.status());
  wum::Result<wum::ingest::IngestDriver> driver =
      wum::ingest::IngestDriver::Create(engine.get(), {});
  if (!driver.ok()) return fail("driver", driver.status());
  wum::ClfParser parser;
  std::vector<Delivery> deliveries;
  std::vector<wum::LogRecordRef> refs;

  ctx.sampler->Attach(engine.get());
  const std::int64_t start = NowNs();
  const std::int64_t cpu_start = CpuNs();
  wum::Status status;
  {
    ScopedSpan root(spans, "replay", -1);
    StampedSource source(&*file, &deliveries, spans, root.id());
    if (!traced) {
      status = driver->Pump(&source, &parser);
    } else {
      // The three calls Pump makes, each under its own span.
      while (status.ok()) {
        wum::Result<std::optional<std::string_view>> chunk = source.Next();
        if (!chunk.ok()) {
          status = chunk.status();
          break;
        }
        if (!chunk->has_value()) break;
        refs.clear();
        {
          ScopedSpan span(spans, "parse", root.id());
          status = parser.ParseChunk(**chunk, &refs);
        }
        if (!status.ok()) break;
        ScopedSpan span(spans, "offer", root.id());
        status = driver->OfferRefs(refs);
      }
    }
    ctx.sampler->SampleNow();
    ScopedSpan span(spans, "finish", root.id());
    const wum::Status finished = engine->Finish();
    if (status.ok()) status = finished;
  }
  it.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  it.cpu_s = static_cast<double>(CpuNs() - cpu_start) / 1e9;
  const EngineSamples samples = ctx.sampler->Detach();
  if (!status.ok()) return fail("replay", status);

  const wum::ClfParser::Stats& parsed = parser.stats();
  const wum::EngineStats total = engine->TotalStats();
  it.lines = parsed.lines_seen;
  it.attempted = ctx.reference->lines;
  const std::uint64_t accounted =
      total.records_in + parsed.lines_rejected + total.dead_letters;
  if (parsed.lines_seen != ctx.reference->lines ||
      accounted != ctx.reference->lines) {
    it.problems.push_back("conservation: " +
                          std::to_string(ctx.reference->lines) +
                          " lines, " + std::to_string(accounted) +
                          " accounted");
  }
  it.failed = parsed.lines_rejected +
              (ctx.reference->lines > total.records_in + parsed.lines_rejected
                   ? ctx.reference->lines - total.records_in -
                         parsed.lines_rejected
                   : 0);
  const Inputs& inputs = *ctx.inputs;
  CheckSessionsAndLatency(
      ctx,
      [&](std::size_t record) {
        return DeliveredAt(deliveries, inputs.line_end[record]);
      },
      &it);
  FillShardLayers(ctx, *engine, samples, &it);
  it.layer["clf.lines"] = static_cast<double>(parsed.lines_seen);
  it.layer["clf.rejected"] = static_cast<double>(parsed.lines_rejected);
  if (traced) {
    // The root span's self time is what read, parse, offer and finish
    // leave of its duration, so the five figures add up to it.
    const std::vector<Span> all = spans->Snapshot();
    std::map<std::string, std::int64_t> by_name =
        SelfTimeByNameNs(all, first_span);
    it.layer["clf.read_s"] = static_cast<double>(by_name["read"]) / 1e9;
    it.layer["clf.parse_s"] = static_cast<double>(by_name["parse"]) / 1e9;
    it.layer["ingest.offer_s"] = static_cast<double>(by_name["offer"]) / 1e9;
    it.layer["stream.finish_s"] = static_cast<double>(by_name["finish"]) / 1e9;
    it.layer["ingest_thread.unattributed_s"] =
        static_cast<double>(by_name["replay"]) / 1e9;
    it.layer["ingest_thread.wall_s"] =
        static_cast<double>(all[first_span].end_ns - all[first_span].start_ns) /
        1e9;
  }
  return it;
}

}  // namespace perfbench
