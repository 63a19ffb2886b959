// websra_sessionize: the data-processing phase of the paper as a command
// line tool — parse a CLF/Combined access log, clean it, identify users,
// and reconstruct sessions with a chosen heuristic.

#include <algorithm>
#include <iostream>
#include <map>
#include <optional>

#include "tool_runtime.h"
#include "tool_util.h"
#include "wum/clf/clf_parser.h"
#include "wum/clf/log_filter.h"
#include "wum/clf/user_partitioner.h"
#include "wum/common/table.h"
#include "wum/ingest/byte_source.h"
#include "wum/ingest/driver.h"
#include "wum/ingest/session_output.h"
#include "wum/mine/path_miner.h"
#include "wum/session/instrumented_sessionizer.h"
#include "wum/session/referrer_heuristic.h"
#include "wum/session/session_io.h"
#include "wum/stream/dead_letter.h"
#include "wum/stream/engine.h"
#include "wum/stream/heuristic_registry.h"
#include "wum/topology/graph_io.h"

namespace {

/// Heuristic names come from the registry, so the usage string cannot
/// drift from what actually dispatches ("referrer" is the documented
/// batch-only special case outside the registry).
std::string Usage() {
  return "usage: websra_sessionize --graph FILE --log FILE --out FILE\n"
         "  [--heuristic " +
         wum::HeuristicRegistry::Default().NamesForUsage() +
         "|referrer]\n"
         "  [--identity ip|ip-ua] [--delta MINUTES=30] [--rho MINUTES=10]\n"
         "  [--keep-robots] [--streaming] [--threads N=4]\n"
         "  [--max-parse-errors N=0] [--metrics-out FILE]\n"
         "  [--metrics-every SEC [--metrics-series FILE]] [--trace-out FILE]\n"
         "  [--log-level debug|info|warn|error|off]\n"
         "  [--format text|binary] [--checkpoint-dir DIR]\n"
         "  [--checkpoint-every-records N=100000] [--resume]\n"
         "  [--mine-topk K [--mine-lengths L=3] [--mine-window N=0]]\n"
         "\n"
         "Reads an access log, applies the standard cleaning chain (GET\n"
         "only, successful status, no embedded resources, no crawlers\n"
         "unless --keep-robots), groups requests per user, reconstructs\n"
         "sessions and writes them as a websra session file. The referrer\n"
         "heuristic needs a Combined-format log.\n"
         "\n"
         "--streaming replays the log through the loop websra_serve runs:\n"
         "the file is parsed chunk by chunk and offered to the sharded\n"
         "StreamEngine (--threads worker shards, hash-partitioned by user\n"
         "identity), which cleans every record itself; nothing is\n"
         "materialized. The robot filter first takes a parse-only pass\n"
         "over the file to collect crawler IPs. The engine's throughput\n"
         "stats go to stderr; the session file is byte-identical to the\n"
         "batch path's. The referrer heuristic is batch-only.\n"
         "\n"
         "--max-parse-errors tolerates up to N malformed log lines: each\n"
         "one is quarantined to a dead-letter channel (counted in the\n"
         "end-of-run table) instead of failing the run. The default 0\n"
         "fails on the first malformed line; a failed run writes no\n"
         "--out file.\n"
         "\n"
         "--metrics-out enables the wum::obs observability layer: parser,\n"
         "engine and sessionizer metrics are written to FILE (CSV when it\n"
         "ends in .csv, JSON otherwise) and summarized on stdout.\n"
         "\n"
         "--metrics-every also enables metrics and additionally appends a\n"
         "registry snapshot every SEC seconds to --metrics-series (default\n"
         "metrics.series.jsonl, one JSON object per line) so long or\n"
         "crashed runs leave a time series. --trace-out records every\n"
         "pipeline stage (parse, partition, enqueue, drain, sessionize,\n"
         "emit, retry, dead_letter, checkpoint) as spans and writes a\n"
         "Chrome trace-event JSON file: load it at https://ui.perfetto.dev\n"
         "or chrome://tracing. --log-level (default warn) controls the\n"
         "structured key=value diagnostics on stderr.\n"
         "\n"
         "--format selects the session file serialization (text is the\n"
         "line-oriented default; binary is the compact CRC-framed format).\n"
         "Readers auto-detect, so downstream tools accept either.\n"
         "\n"
         "--mine-topk K (streaming only) mines the top-k frequent\n"
         "link-topology-valid paths of lengths 2..--mine-lengths from the\n"
         "live session stream in bounded memory and prints them as JSON on\n"
         "stdout at the end of the run; --mine-window N halves all counts\n"
         "every N mined paths. Miner state rides the checkpoint. See\n"
         "docs/mining.md.\n"
         "\n"
         "--checkpoint-dir enables durable checkpointing (streaming only):\n"
         "sessions append to a journal in DIR and the engine snapshots its\n"
         "state there every --checkpoint-every-records parsed input\n"
         "records. After a crash, rerun the identical command with --resume\n"
         "to continue from the last committed checkpoint; the finished\n"
         "output is identical to an uninterrupted run. See\n"
         "docs/checkpointing.md.\n";
}

/// The streaming path reads the log in chunks the size of websra_serve's
/// socket reads, so the shared loop holds the same few hundred records
/// in flight; 1 MiB chunks would keep ~10k parsed refs and fat recycled
/// batches resident.
constexpr std::size_t kStreamChunkBytes = 64u << 10;

/// Everything both paths need from the command line.
struct Job {
  std::string log_path;
  std::string out_path;
  std::string heuristic;
  wum::UserIdentity identity = wum::UserIdentity::kClientIp;
  wum::TimeThresholds thresholds;
  wum::SessionFormat format = wum::SessionFormat::kText;
  std::uint64_t max_parse_errors = 0;
  bool keep_robots = false;
  std::optional<wum::mine::MinerOptions> mining;
};

/// Routes every malformed line the parser rejects to `dead_letters`.
void DeadLetterRejects(wum::ClfParser* parser,
                       wum::DeadLetterQueue* dead_letters) {
  parser->set_reject_handler([dead_letters](std::uint64_t line_number,
                                            std::string_view raw_line,
                                            const wum::Status& reason) {
    wum::DeadLetter letter;
    letter.stage = wum::DeadLetter::Stage::kParse;
    letter.reason = reason;
    letter.detail =
        "line " + std::to_string(line_number) + ": " + std::string(raw_line);
    dead_letters->Offer(std::move(letter));
  });
}

/// More than --max-parse-errors malformed lines fails the run.
wum::Status CheckParseErrors(const wum::ClfParser::Stats& stats,
                             std::uint64_t max_parse_errors) {
  if (stats.lines_rejected > max_parse_errors) {
    std::string message = std::to_string(stats.lines_rejected) +
                          " malformed lines exceed --max-parse-errors=" +
                          std::to_string(max_parse_errors);
    for (const std::string& sample : stats.sample_errors) {
      message += "\n  " + sample;
    }
    return wum::Status::ParseError(message);
  }
  std::cout << "parsed " << stats.records_parsed << " records, "
            << stats.lines_rejected << " malformed lines\n";
  return wum::Status::OK();
}

/// End-of-run accounting table: every log line is either parsed or
/// dead-lettered, and every parsed record either reaches a sessionizer
/// as a page view or was cleaned away.
void PrintRunSummary(const wum::ClfParser::Stats& parse_stats,
                     const wum::DeadLetterQueue& dead_letters,
                     std::uint64_t page_views, std::size_t sessions) {
  wum::Table table({"stage", "count"});
  table.AddRow({"log lines seen", std::to_string(parse_stats.lines_seen)});
  table.AddRow({"records parsed", std::to_string(parse_stats.records_parsed)});
  table.AddRow({"malformed lines dead-lettered",
                std::to_string(dead_letters.total_offered())});
  table.AddRow({"page views sessionized", std::to_string(page_views)});
  table.AddRow({"sessions written", std::to_string(sessions)});
  table.Render(&std::cout);
}

/// The robot filter's whole-log meaning — a client that fetches
/// /robots.txt anywhere in the log loses all its records — needs the
/// crawler set before the first record is offered: a parse-only pass
/// over the file that keeps nothing but that set.
wum::Result<wum::RobotFilter> ObserveRobots(const std::string& log_path) {
  WUM_ASSIGN_OR_RETURN(
      wum::ingest::FileSource source,
      wum::ingest::FileSource::Open(log_path, kStreamChunkBytes));
  wum::ClfParser parser;
  wum::RobotFilter robots;
  std::vector<wum::LogRecordRef> refs;
  while (true) {
    WUM_ASSIGN_OR_RETURN(std::optional<std::string_view> chunk,
                         source.Next());
    if (!chunk.has_value()) return robots;
    refs.clear();
    WUM_RETURN_NOT_OK(parser.ParseChunk(*chunk, &refs));
    for (const wum::LogRecordRef& ref : refs) robots.ObserveForRobots(ref);
  }
}

/// Streaming path: the daemon's loop over a file — FileSource ->
/// IngestDriver::Pump -> StreamEngine, cleaning inside the engine, and
/// sessions into the SessionOutput websra_serve writes through too.
wum::Status RunStreaming(const Job& job, const wum::WebGraph& graph,
                         const wum_tools::Flags& flags,
                         wum_tools::ToolRuntime& runtime) {
  if (job.heuristic == "referrer") {
    return wum::Status::InvalidArgument(
        "--streaming does not support the referrer heuristic; use the "
        "batch path");
  }
  WUM_ASSIGN_OR_RETURN(std::uint64_t threads, flags.GetUint("threads", 4));
  if (threads == 0) {
    return wum::Status::InvalidArgument("--threads must be >= 1");
  }
  wum::EngineOptions options;
  options.set_num_shards(static_cast<std::size_t>(threads))
      .set_identity(job.identity)
      .set_thresholds(job.thresholds)
      .set_num_pages(graph.num_pages())
      .set_metrics(runtime.metrics())
      .set_trace(runtime.trace())
      .use_graph(&graph)
      .use_heuristic(job.heuristic)
      .add_standard_filters();
  if (!job.keep_robots) {
    WUM_ASSIGN_OR_RETURN(wum::RobotFilter robots, ObserveRobots(job.log_path));
    options.add_filter(
        [robots] { return std::make_unique<wum::RobotFilter>(robots); });
  }
  if (job.mining.has_value()) {
    options.set_mining(*job.mining);
  }

  const std::optional<wum_tools::CheckpointConfig>& checkpoint =
      runtime.checkpoint();
  wum::ingest::SessionOutput output(checkpoint.has_value() ? checkpoint->dir
                                                           : std::string());
  WUM_ASSIGN_OR_RETURN(
      std::unique_ptr<wum::StreamEngine> engine,
      runtime.StartEngine(options, &output, /*external_replay=*/false));
  wum::ingest::IngestOptions ingest_options;
  if (checkpoint.has_value()) {
    ingest_options.checkpoint_dir = checkpoint->dir;
    ingest_options.checkpoint_every_records = checkpoint->every_records;
    ingest_options.sink_state = [&output] { return output.SinkState(); };
  }
  WUM_ASSIGN_OR_RETURN(
      wum::ingest::IngestDriver driver,
      wum::ingest::IngestDriver::Create(engine.get(),
                                        std::move(ingest_options)));
  WUM_ASSIGN_OR_RETURN(
      wum::ingest::FileSource source,
      wum::ingest::FileSource::Open(job.log_path, kStreamChunkBytes));
  wum::ClfParser parser(runtime.metrics());
  parser.set_tracer(runtime.tracer());
  wum::DeadLetterQueue dead_letters;
  DeadLetterRejects(&parser, &dead_letters);
  WUM_RETURN_NOT_OK(driver.Pump(&source, &parser));
  WUM_RETURN_NOT_OK(CheckParseErrors(parser.stats(), job.max_parse_errors));
  WUM_RETURN_NOT_OK(engine->Finish());
  if (engine->mining() != nullptr) {
    std::cout << engine->mining()->PatternsJson() << "\n";
  }
  const wum::EngineStats total = engine->TotalStats();
  std::cerr << "engine[" << engine->num_shards()
            << " shards]: " << wum::EngineStatsToString(total) << "\n";
  const std::vector<wum::EngineStats> per_shard = engine->ShardStats();
  for (std::size_t i = 0; i < per_shard.size(); ++i) {
    std::cerr << "  shard " << i << ": "
              << wum::EngineStatsToString(per_shard[i]) << "\n";
  }
  // Every session is in the output now. Free the engine's per-user
  // state before WriteSorted reads a checkpoint journal back into
  // memory (744k lines: 56 MB peak instead of 65 MB).
  engine.reset();
  WUM_ASSIGN_OR_RETURN(const std::size_t written,
                       output.WriteSorted(job.out_path, job.format));
  std::cout << "wrote " << written << " sessions (" << job.heuristic
            << ", streaming) to " << job.out_path << "\n";
  PrintRunSummary(parser.stats(), dead_letters,
                  total.records_in - total.records_dropped, written);
  return runtime.Finish(flags);
}

/// Batch path, the reference implementation the streaming path is
/// checked against: parse and clean the whole log, partition it by
/// user, reconstruct each user's sessions.
wum::Status RunBatch(const Job& job, const wum::WebGraph& graph,
                     const wum_tools::Flags& flags,
                     wum_tools::ToolRuntime& runtime) {
  if (flags.Has("threads")) {
    return wum::Status::InvalidArgument("--threads requires --streaming");
  }
  WUM_ASSIGN_OR_RETURN(wum::ingest::FileSource log_source,
                       wum::ingest::FileSource::Open(job.log_path));
  wum::ClfParser parser(runtime.metrics());
  parser.set_tracer(runtime.tracer());
  wum::DeadLetterQueue dead_letters;
  DeadLetterRejects(&parser, &dead_letters);
  // The records are owned because the cleaning chain and robot observer
  // scan them long after the chunk buffer moves on.
  std::vector<wum::LogRecord> records;
  std::vector<wum::LogRecordRef> parsed_refs;
  while (true) {
    WUM_ASSIGN_OR_RETURN(std::optional<std::string_view> chunk,
                         log_source.Next());
    if (!chunk.has_value()) break;
    parsed_refs.clear();
    WUM_RETURN_NOT_OK(parser.ParseChunk(*chunk, &parsed_refs));
    for (const wum::LogRecordRef& ref : parsed_refs) {
      records.push_back(ref.Materialize());
    }
  }
  WUM_RETURN_NOT_OK(CheckParseErrors(parser.stats(), job.max_parse_errors));

  // Clean.
  wum::FilterChain chain = wum::FilterChain::Standard();
  if (!job.keep_robots) {
    auto robots = std::make_unique<wum::RobotFilter>();
    robots->ObserveForRobots(records);
    chain.Add(std::move(robots));
  }
  std::vector<wum::LogRecord> cleaned = chain.Apply(records);
  std::cout << "cleaning kept " << cleaned.size() << " page views\n";

  // Identify users.
  WUM_ASSIGN_OR_RETURN(wum::PartitionResult partition,
                       wum::PartitionByUser(cleaned, graph.num_pages(),
                                            job.identity));
  std::cout << "identified " << partition.streams.size() << " users ("
            << partition.skipped_non_page_urls << " non-page URLs skipped)\n";
  std::uint64_t page_views = 0;
  for (const wum::UserStream& user : partition.streams) {
    page_views += user.requests.size();
  }

  // Reconstruct.
  std::vector<wum::UserSession> output;
  if (job.heuristic == "referrer") {
    // Rebuild per-user referred streams from the cleaned records.
    std::map<std::string, std::vector<wum::ReferredRequest>> streams;
    for (const wum::LogRecord& record : cleaned) {
      wum::Result<std::uint32_t> page = wum::PageFromUrl(record.url);
      if (!page.ok()) continue;
      wum::Result<std::uint32_t> referrer =
          wum::PageFromReferrer(record.referrer);
      streams[wum::UserKeyFor(record.client_ip, record.user_agent,
                              job.identity)]
          .push_back(wum::ReferredRequest{
              static_cast<wum::PageId>(*page),
              referrer.ok() ? static_cast<wum::PageId>(*referrer)
                            : wum::kInvalidPage,
              record.timestamp});
    }
    wum::ReferrerSessionizer::Options options;
    options.thresholds = job.thresholds;
    wum::ReferrerSessionizer heuristic(&graph, options);
    for (auto& [key, stream] : streams) {
      std::stable_sort(stream.begin(), stream.end(),
                       [](const wum::ReferredRequest& a,
                          const wum::ReferredRequest& b) {
                         return a.timestamp < b.timestamp;
                       });
      WUM_ASSIGN_OR_RETURN(std::vector<wum::Session> sessions,
                           heuristic.Reconstruct(stream));
      for (wum::Session& session : sessions) {
        output.push_back(wum::UserSession{key, std::move(session)});
      }
    }
  } else {
    wum::HeuristicContext context;
    context.graph = &graph;
    context.thresholds = job.thresholds;
    WUM_ASSIGN_OR_RETURN(std::unique_ptr<wum::Sessionizer> inner,
                         wum::HeuristicRegistry::Default().CreateBatch(
                             job.heuristic, context));
    wum::InstrumentedSessionizer heuristic(std::move(inner),
                                           runtime.metrics());
    for (const wum::UserStream& user : partition.streams) {
      WUM_ASSIGN_OR_RETURN(std::vector<wum::Session> sessions,
                           heuristic.Reconstruct(user.requests));
      for (wum::Session& session : sessions) {
        output.push_back(wum::UserSession{user.user_key, std::move(session)});
      }
    }
  }
  WUM_RETURN_NOT_OK(wum::WriteSessionsFile(output, job.out_path, job.format));
  std::cout << "wrote " << output.size() << " sessions (" << job.heuristic
            << ") to " << job.out_path << "\n";
  PrintRunSummary(parser.stats(), dead_letters, page_views, output.size());
  return runtime.Finish(flags);
}

wum::Status Run(const wum_tools::Flags& flags) {
  const wum_tools::RuntimeFeatures features{.durability = true,
                                            .always_metrics = false};
  WUM_RETURN_NOT_OK(flags.CheckKnown(wum_tools::ToolRuntime::WithFlags(
      {"graph", "log", "out", "heuristic", "identity", "delta", "rho",
       "keep-robots", "streaming", "threads", "max-parse-errors", "format",
       "mine-topk", "mine-lengths", "mine-window"},
      features)));
  Job job;
  WUM_ASSIGN_OR_RETURN(std::string graph_path, flags.GetRequired("graph"));
  WUM_ASSIGN_OR_RETURN(job.log_path, flags.GetRequired("log"));
  WUM_ASSIGN_OR_RETURN(job.out_path, flags.GetRequired("out"));
  WUM_ASSIGN_OR_RETURN(wum::WebGraph graph, wum::ReadGraphFile(graph_path));
  job.heuristic = flags.GetString("heuristic", "smart-sra");
  WUM_ASSIGN_OR_RETURN(job.thresholds, wum_tools::GetThresholds(flags));
  WUM_ASSIGN_OR_RETURN(job.identity, wum_tools::GetIdentity(flags));
  WUM_ASSIGN_OR_RETURN(job.format, wum_tools::GetSessionFormat(flags));
  WUM_ASSIGN_OR_RETURN(job.max_parse_errors,
                       flags.GetUint("max-parse-errors", 0));
  job.keep_robots = flags.Has("keep-robots");
  WUM_ASSIGN_OR_RETURN(job.mining, wum_tools::GetMiningFlags(flags));

  // The shared tool runtime: observability (one registry behind the
  // parser, the engine and the sessionizer; trace recorder; reporter;
  // log level) plus the parsed durability flags.
  WUM_ASSIGN_OR_RETURN(wum_tools::ToolRuntime runtime,
                       wum_tools::ToolRuntime::Start(flags, features));
  const bool streaming = flags.Has("streaming");
  if (runtime.checkpoint().has_value() && !streaming) {
    return wum::Status::InvalidArgument(
        "--checkpoint-dir requires --streaming");
  }
  if (job.mining.has_value() && !streaming) {
    return wum::Status::InvalidArgument("--mine-topk requires --streaming");
  }
  runtime.SetBuildLabel(
      "config", "heuristic=" + job.heuristic + " identity=" +
                    flags.GetString("identity", "ip") +
                    (streaming ? " streaming" : " batch"));
  return streaming ? RunStreaming(job, graph, flags, runtime)
                   : RunBatch(job, graph, flags, runtime);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string usage = Usage();
  wum::Result<wum_tools::Flags> flags =
      wum_tools::Flags::Parse(argc, argv,
                              {"keep-robots", "streaming", "resume"});
  if (!flags.ok()) return wum_tools::FailWith(flags.status(), usage.c_str());
  wum::Status status = Run(*flags);
  if (!status.ok()) return wum_tools::FailWith(status, usage.c_str());
  return 0;
}
