// websra_perfbench: end-to-end and per-layer benchmark of websra's
// front doors (file replay, daemon under closed-loop load, daemon under
// paced open-loop load). See perfbench/README.md.
//
//   websra_perfbench --workload replay|serve|live --seed N --seconds S
//                    --trace 0|1 [--quick] [--work-dir DIR]
//
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The line before it is a "detail" object: provenance,
// workload parameters, sample counts and per-iteration figures.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "calibrate.h"
#include "inputs.h"
#include "probes.h"
#include "spans.h"
#include "wum/net/server.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// Seed kept out of tuning, for confirming a later claim on inputs the
/// change was not written against.
constexpr std::uint64_t kHeldOutSeed = 20260117;
/// Set-ups per run; setup_s is their median. Set-up is timed in process
/// CPU seconds, normalized to the reference host speed: on a shared
/// virtual machine its wall time swings with neighbour load (steal),
/// which would hide or fake work moved into it.
constexpr int kSetups = 5;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Wall-clock throughput and latency swing by up to 2x with neighbour
// load on a shared virtual machine (steal time), so they are reported
// per layer (wall.*) rather than gated. The gated CPU times are divided
// by the calibration kernel's CPU time (calibrate.h), which removes most
// of their drift with the host's speed.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"cpu_us_per_record", "us"},
    {"cpu_us_per_record_1shard", "us"},
    {"peak_mem_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"clf.read_s", "s"},
    {"clf.parse_s", "s"},
    {"clf.lines", "count"},
    {"clf.rejected", "count"},
    {"ingest.offer_s", "s"},
    {"stream.blocked_enqueues", "count"},
    {"stream.queue_depth_max", "count"},
    {"stream.shard_skew", "ratio"},
    {"stream.finish_s", "s"},
    {"session.sessionize_s", "s"},
    {"session.sessionize_max_shard_s", "s"},
    {"session.sessions_per_record", "ratio"},
    {"emit.wait_hold_s", "s"},
    {"emit.max_shard_s", "s"},
    {"emit.share_of_shard", "ratio"},
    {"sink.accept_s", "s"},
    {"sink.bytes", "bytes"},
    {"shard.other_s", "s"},
    {"net.send_blocked_s", "s"},
    {"net.bytes_sent", "bytes"},
    {"net.connections", "count"},
    {"ckpt.count", "count"},
    {"ckpt.p50_ms", "ms"},
    {"ckpt.max_ms", "ms"},
    {"ckpt.bytes", "bytes"},
    {"mine.sessions_seen", "count"},
    {"mine.backlog_max_batches", "count"},
    {"obs.scrapes", "count"},
    {"obs.scrape_bytes", "bytes"},
    {"obs.scrape_p50_ms", "ms"},
    {"obs.scrape_p95_ms", "ms"},
    {"gen.send_lag_p99_ms", "ms"},
    {"trace.overhead", "ratio"},
    {"ingest_thread.wall_s", "s"},
    {"ingest_thread.unattributed_s", "s"},
    {"ingest_thread.wall_s_1shard", "s"},
    {"ingest.offer_s_1shard", "s"},
    {"session.sessionize_s_1shard", "s"},
    {"emit.wait_hold_s_1shard", "s"},
    {"stream.blocked_enqueues_1shard", "count"},
    {"wall.records_per_s", "rec/s"},
    {"wall.records_per_s_1shard", "rec/s"},
    {"wall.emit_latency_p50_ms", "ms"},
    {"wall.emit_latency_p99_ms", "ms"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool quick = false;
  std::string work_dir = ".bench_build/work";
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      args.quick = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || args.seconds <= 0) {
        return std::nullopt;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload || !have_seed) return std::nullopt;
  return args;
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

/// Machine-wide (steal, total) jiffies from /proc/stat: the share of CPU
/// time the hypervisor gave to other guests, for reading wall-clock
/// figures. {0, 0} when unreadable.
std::pair<double, double> StealJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double value = 0, total = 0, steal = 0;
  in >> cpu;
  for (int field = 0; field < 10 && in >> value; ++field) {
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

std::string Num(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Names the stage that bounds the 3-shard file replay, from the traced
/// medians. When even the busiest shard is busy (sessionizing, or
/// waiting for and holding the emit hub) for less than half the wall
/// time, the shards wait on the serial ingest thread; otherwise the
/// larger of the busiest shard's two costs is named.
std::string SerialStage(std::map<std::string, double>& v) {
  const double wall = v["ingest_thread.wall_s"];
  const double emit = v["emit.max_shard_s"];
  const double sessionize = v["session.sessionize_max_shard_s"];
  if (wall <= 0) return "no traced replay iterations";
  char buffer[512];
  if (emit + sessionize < 0.5 * wall) {
    std::snprintf(buffer, sizeof(buffer),
                  "ingest thread: read %.3f s + parse %.3f s + offer %.3f s "
                  "of its %.3f s wall, while the busiest shard is busy only "
                  "%.0f%% of it (1 shard: %.3f s wall)",
                  v["clf.read_s"], v["clf.parse_s"], v["ingest.offer_s"],
                  wall, 100 * (emit + sessionize) / wall,
                  v["ingest_thread.wall_s_1shard"]);
  } else {
    std::snprintf(buffer, sizeof(buffer),
                  "%s: the busiest shard waits for or holds the emit hub "
                  "%.3f s and sessionizes %.3f s of the %.3f s wall; on "
                  "average %.1f shards are inside the hub at once (1 shard: "
                  "emit %.3f s, sessionize %.3f s, wall %.3f s)",
                  emit > sessionize ? "emit hub" : "sessionize", emit,
                  sessionize, wall, v["emit.wait_hold_s"] / wall,
                  v["emit.wait_hold_s_1shard"],
                  v["session.sessionize_s_1shard"],
                  v["ingest_thread.wall_s_1shard"]);
  }
  return buffer;
}

/// One set-up: the inputs, the CLF file for the file path, and an
/// engine (plus server) started and torn down — everything before the
/// first record is offered.
wum::Result<Inputs> SetUp(const WorkloadSpec& spec, const Args& args,
                          const std::string& log_path) {
  WUM_ASSIGN_OR_RETURN(Inputs inputs, Generate(spec, args.seed, kConnections));
  if (!spec.daemon) {
    std::ofstream out(log_path, std::ios::binary | std::ios::trunc);
    out.write(inputs.text.data(),
              static_cast<std::streamsize>(inputs.text.size()));
    out.close();
    if (!out) return wum::Status::IoError("cannot write " + log_path);
  }
  Context ctx;
  ctx.inputs = &inputs;
  wum::CollectingSessionSink sink;
  wum::DeadLetterQueue dead_letters;
  WUM_ASSIGN_OR_RETURN(
      std::unique_ptr<wum::StreamEngine> engine,
      wum::StreamEngine::Create(
          EngineOptionsFor(ctx, kShards, false, &dead_letters, nullptr),
          &sink));
  if (spec.daemon) {
    WUM_ASSIGN_OR_RETURN(std::unique_ptr<wum::net::LogServer> server,
                         wum::net::LogServer::Start(wum::net::ServerOptions{},
                                                    engine.get(),
                                                    &dead_letters));
  }
  WUM_RETURN_NOT_OK(engine->Finish());
  engine.reset();  // before `inputs` (and the graph it views) moves out
  return inputs;
}

int Run(const Args& args) {
  std::optional<WorkloadSpec> spec;
  for (const WorkloadSpec& candidate : Workloads(args.quick)) {
    if (candidate.name == args.workload) spec = candidate;
  }
  if (!spec.has_value()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::string work_dir =
      args.work_dir + "/" + spec->name + "-" + std::to_string(args.seed) +
      "-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", work_dir.c_str());
    return 2;
  }
  const std::string log_path = work_dir + "/access.log";

  // Sampler and calibrator first, so set-up's threads and heap and the
  // calibration buffers are in the baseline.
  Sampler sampler(50'000'000, args.trace ? 2'000'000 : 0);
  Calibrator calibrator(static_cast<int>(kShards) + 1);
  // Every timed stretch (a set-up, an iteration) is bracketed by two
  // calibrations and normalized by their mean.
  std::vector<double> calibration_ns;
  auto calibrate = [&calibrator, &calibration_ns]() -> double {
    const std::int64_t ns = calibrator.Measure();
    if (ns > 0) calibration_ns.push_back(static_cast<double>(ns));
    return static_cast<double>(ns);
  };
  std::vector<double> setup_s, setup_raw_s;
  std::optional<Inputs> inputs;
  double calibration_before = calibrate();
  for (int i = 0; i < kSetups; ++i) {
    inputs.reset();
    const std::int64_t start = CpuNs();
    wum::Result<Inputs> made = SetUp(*spec, args, log_path);
    if (!made.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   made.status().ToString().c_str());
      return 2;
    }
    const double raw = static_cast<double>(CpuNs() - start) / 1e9;
    const double calibration_after = calibrate();
    if (calibration_before <= 0 || calibration_after <= 0) {
      std::fprintf(stderr, "calibration kernel gave inconsistent results\n");
      return 2;
    }
    setup_raw_s.push_back(raw);
    setup_s.push_back(
        Normalize(raw, (calibration_before + calibration_after) / 2));
    calibration_before = calibration_after;
    inputs = std::move(*made);
  }
  wum::Result<Reference> reference = BuildReference(*inputs);
  if (!reference.ok()) {
    std::fprintf(stderr, "reference failed: %s\n",
                 reference.status().ToString().c_str());
    return 2;
  }
  AccRegistry accs;
  SpanLog spans;
  BenchSink sink(reference->digest.sessions, args.trace ? &accs : nullptr);
  Context ctx;
  ctx.inputs = &*inputs;
  ctx.reference = &*reference;
  ctx.work_dir = work_dir;
  ctx.log_path = log_path;
  ctx.sampler = &sampler;
  ctx.accs = &accs;
  ctx.spans = &spans;
  ctx.sink = &sink;
  sampler.TakeBaseline();

  struct Arm {
    std::size_t shards;
    bool traced;
  };
  std::vector<Arm> arms;
  if (!args.trace) {
    arms = {{kShards, false}, {1, false}};
  } else {
    arms = {{kShards, false}, {kShards, true}, {1, false}};
    if (!spec->daemon) arms.push_back({1, true});
  }
  const auto run = spec->daemon ? RunDaemon : RunReplay;
  // Iterations keep only their scalars once done; histograms are merged
  // into per-arm totals at once, so the run's own bookkeeping stays
  // constant in size and out of peak_mem_mb.
  std::vector<Iteration> done;
  std::map<std::pair<std::size_t, bool>, Iteration> totals;
  std::vector<std::string> problems;
  // One untimed iteration of every untraced arm first, so caches, the
  // allocator and the kernel's socket buffers settle before anything is
  // measured. Its outputs still pass through the correctness gate.
  std::uint64_t attempted = 0, failed = 0;
  for (const Arm& arm : arms) {
    if (arm.traced) continue;
    const Iteration it = run(ctx, arm.shards, false);
    attempted += it.attempted;
    failed += it.failed;
    problems.insert(problems.end(), it.problems.begin(), it.problems.end());
  }
  const auto steal_start = StealJiffies();
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(args.seconds * 1e9);
  calibration_before = calibrate();
  do {
    for (const Arm& arm : arms) {
      Iteration it = run(ctx, arm.shards, arm.traced);
      const double calibration_after = calibrate();
      if (calibration_before <= 0 || calibration_after <= 0) {
        it.problems.push_back("calibration kernel gave inconsistent results");
      }
      it.calibration_ns = (calibration_before + calibration_after) / 2;
      calibration_before = calibration_after;
      for (const std::string& problem : it.problems) {
        problems.push_back(problem);
      }
      Iteration& total = totals[{arm.shards, arm.traced}];
      for (LatencyHistogram Iteration::*field :
           {&Iteration::emit_latency_ms, &Iteration::scrape_ms,
            &Iteration::send_lag_ms}) {
        (total.*field).Merge(it.*field);
        (it.*field).Clear();
      }
      if (!it.traced) it.layer.clear();
      it.problems.clear();
      done.push_back(std::move(it));
    }
  } while (problems.empty() && NowNs() < deadline);
  const auto steal_end = StealJiffies();
  const double steal_share =
      steal_end.second > steal_start.second
          ? (steal_end.first - steal_start.first) /
                (steal_end.second - steal_start.second)
          : 0;
  std::filesystem::remove_all(work_dir, ec);

  auto select = [&done](std::size_t shards, bool traced) {
    std::vector<const Iteration*> out;
    for (const Iteration& it : done) {
      if (it.shards == shards && it.traced == traced) out.push_back(&it);
    }
    return out;
  };
  auto rates = [](const std::vector<const Iteration*>& its) {
    std::vector<double> out;
    for (const Iteration* it : its) {
      out.push_back(it->wall_s > 0 ? static_cast<double>(it->lines) / it->wall_s
                                   : 0);
    }
    return out;
  };
  auto peak_mem = [](const std::vector<const Iteration*>& its) {
    std::vector<double> out;
    for (const Iteration* it : its) out.push_back(it->peak_mem_mb);
    return Median(out);
  };
  auto cpu_us = [](const std::vector<const Iteration*>& its, bool normalize) {
    std::vector<double> out;
    for (const Iteration* it : its) {
      const double raw =
          it->lines > 0 ? it->cpu_s * 1e6 / static_cast<double>(it->lines) : 0;
      out.push_back(normalize ? Normalize(raw, it->calibration_ns) : raw);
    }
    return Median(out);
  };
  auto pooled = [&totals](std::size_t shards, bool traced,
                          LatencyHistogram Iteration::*field) {
    return totals[{shards, traced}].*field;
  };
  auto layer_of = [](const Iteration* it, const std::string& name) {
    if (it == nullptr) return 0.0;
    const auto found = it->layer.find(name);
    return found == it->layer.end() ? 0.0 : found->second;
  };
  auto layer_median = [&layer_of](const std::vector<const Iteration*>& its,
                                  const std::string& name) {
    std::vector<double> values;
    for (const Iteration* it : its) values.push_back(layer_of(it, name));
    return Median(values);
  };
  // The iteration whose ingest-thread wall time is the (lower) median:
  // the ingest-thread breakdown is reported from this one iteration, so
  // its terms add up to its wall time as they do within an iteration.
  auto median_iteration = [&layer_of](std::vector<const Iteration*> its)
      -> const Iteration* {
    if (its.empty()) return nullptr;
    std::sort(its.begin(), its.end(),
              [&layer_of](const Iteration* a, const Iteration* b) {
                return layer_of(a, "ingest_thread.wall_s") <
                       layer_of(b, "ingest_thread.wall_s");
              });
    return its[(its.size() - 1) / 2];
  };

  for (const Iteration& it : done) {
    attempted += it.attempted;
    failed += it.failed;
  }
  const bool correct = problems.empty() && failed == 0;
  for (const std::string& problem : problems) {
    std::fprintf(stderr, "correctness: %s\n", problem.c_str());
  }

  std::map<std::string, double> values;
  std::map<std::string, std::size_t> samples;
  const auto main_arm = select(kShards, false);
  if (!args.trace) {
    values["setup_s"] = Median(setup_s);
    values["cpu_us_per_record"] = cpu_us(main_arm, true);
    values["cpu_us_per_record_1shard"] = cpu_us(select(1, false), true);
    values["peak_mem_mb"] = peak_mem(main_arm);
  } else {
    // wall.*: the untraced arms of the traced run.
    const LatencyHistogram latency =
        pooled(kShards, false, &Iteration::emit_latency_ms);
    values["wall.records_per_s"] = Median(rates(main_arm));
    values["wall.records_per_s_1shard"] = Median(rates(select(1, false)));
    values["wall.emit_latency_p50_ms"] = latency.Percentile(0.5);
    values["wall.emit_latency_p99_ms"] = latency.Percentile(0.99);
    samples["emit_latency"] = latency.count();
    const auto traced = select(kShards, true);
    const auto traced_1 = select(1, true);
    for (const MetricDef& def : kPerLayer) {
      if (values.count(def.name) == 0) {
        values[def.name] = layer_median(traced, def.name);
      }
    }
    const Iteration* typical = median_iteration(traced);
    for (const char* name :
         {"clf.read_s", "clf.parse_s", "ingest.offer_s", "stream.finish_s",
          "ingest_thread.unattributed_s", "ingest_thread.wall_s"}) {
      values[name] = layer_of(typical, name);
    }
    const LatencyHistogram scrape =
        pooled(kShards, true, &Iteration::scrape_ms);
    const LatencyHistogram lag = pooled(kShards, true, &Iteration::send_lag_ms);
    values["obs.scrape_p50_ms"] = scrape.Percentile(0.5);
    values["obs.scrape_p95_ms"] = scrape.Percentile(0.95);
    values["gen.send_lag_p99_ms"] = lag.Percentile(0.99);
    samples["scrape"] = scrape.count();
    samples["send_lag"] = lag.count();
    const double untraced_rate = Median(rates(main_arm));
    values["trace.overhead"] =
        untraced_rate > 0 ? Median(rates(traced)) / untraced_rate : 0;
    const Iteration* typical_1 = median_iteration(traced_1);
    for (const char* name :
         {"ingest_thread.wall_s", "ingest.offer_s", "session.sessionize_s",
          "emit.wait_hold_s", "stream.blocked_enqueues"}) {
      values[std::string(name) + "_1shard"] = layer_of(typical_1, name);
    }
    const std::string path = args.work_dir + "/traces/" + spec->name +
                             "-seed" + std::to_string(args.seed) +
                             ".trace.json";
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path(), ec);
    std::ofstream(path) << spans.ChromeTraceJson();
  }

  // Detail line: provenance, parameters, sample counts, iterations.
  std::string detail = "{\"detail\":{\"provenance\":{";
  detail += "\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  detail += ",\"compiler\":" + Quote(__VERSION__);
  detail += ",\"build_type\":" + Quote(PERFBENCH_BUILD_TYPE);
  detail += ",\"shards\":" + std::to_string(kShards);
  detail += ",\"connections\":" + std::to_string(kConnections);
  detail += ",\"seed\":" + std::to_string(args.seed);
  detail += ",\"held_out_seed\":" + std::to_string(kHeldOutSeed);
  detail += ",\"quick\":" + std::string(args.quick ? "true" : "false");
  detail += ",\"steal_share\":" + Num(steal_share);
  detail += "},\"workload\":{\"name\":" + Quote(spec->name);
  detail += ",\"agents\":" + std::to_string(spec->agents);
  detail += ",\"agents_per_proxy\":" + std::to_string(spec->agents_per_proxy);
  detail += ",\"start_window_s\":" + std::to_string(spec->start_window_s);
  detail += ",\"topology\":" + Quote(kTopology);
  detail += ",\"rate\":" + Num(spec->rate);
  detail += ",\"tick_ms\":" + Num(static_cast<double>(spec->tick_ns) / 1e6);
  detail += ",\"lines\":" + std::to_string(reference->lines);
  detail += ",\"sessions\":" + std::to_string(reference->digest.sessions);
  detail += ",\"why\":" + Quote(spec->why);
  detail += "},\"samples\":{";
  bool first = true;
  for (const auto& [name, count] : samples) {
    detail += (first ? "" : ",") + Quote(name) + ":" + std::to_string(count);
    first = false;
  }
  detail += "},\"calibration\":{\"samples\":" +
            std::to_string(calibration_ns.size()) + ",\"min_ms\":" +
            Num(Percentile(calibration_ns, 0) / 1e6) + ",\"median_ms\":" +
            Num(Median(calibration_ns) / 1e6) + ",\"max_ms\":" +
            Num(Percentile(calibration_ns, 1) / 1e6) + ",\"reference_ms\":" +
            Num(kReferenceCalibrationNs / 1e6) + "},\"setup_s\":[";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    detail += (i ? "," : "") + Num(setup_s[i]);
  }
  detail += "],\"setup_raw_s\":[";
  for (std::size_t i = 0; i < setup_raw_s.size(); ++i) {
    detail += (i ? "," : "") + Num(setup_raw_s[i]);
  }
  detail += "],\"arms\":[";
  first = true;
  for (const bool traced : {false, true}) {
    for (const std::size_t shards : {kShards, std::size_t{1}}) {
      const auto its = select(shards, traced);
      if (its.empty()) continue;
      const std::vector<double> r = rates(its);
      detail += std::string(first ? "" : ",") + "{\"shards\":" +
                std::to_string(shards) + ",\"traced\":" +
                (traced ? "true" : "false") + ",\"iterations\":" +
                std::to_string(its.size()) + ",\"rate_min\":" +
                Num(*std::min_element(r.begin(), r.end())) +
                ",\"rate_median\":" + Num(Median(r)) + ",\"rate_max\":" +
                Num(*std::max_element(r.begin(), r.end())) +
                ",\"cpu_us_raw\":" + Num(cpu_us(its, false)) +
                ",\"cpu_us\":" + Num(cpu_us(its, true)) + "}";
      first = false;
    }
  }
  detail += "]";
  if (args.trace && !spec->daemon) {
    detail += ",\"serial_stage\":" + Quote(SerialStage(values));
  }
  detail += "}}";
  std::printf("%s\n", detail.c_str());

  std::string result = "{\"correct\":" + std::string(correct ? "true" : "false");
  result += ",\"attempted\":" + std::to_string(std::max<std::uint64_t>(attempted, 1));
  result += ",\"failed\":" + std::to_string(failed);
  result += ",\"metrics\":{";
  first = true;
  const auto emit_metric = [&](const MetricDef& def) {
    result += std::string(first ? "" : ",") + Quote(def.name) +
              ":{\"value\":" + Num(values[def.name]) +
              ",\"unit\":" + Quote(def.unit) + "}";
    first = false;
  };
  if (args.trace) {
    for (const MetricDef& def : kPerLayer) emit_metric(def);
  } else {
    for (const MetricDef& def : kEndToEnd) emit_metric(def);
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Pin glibc's mmap threshold at its start-up value. Left dynamic, it
  // rises the first time a large block is freed, later blocks of that
  // size then stay on the heap, and the peak memory of an iteration
  // grows with the number of iterations run before it instead of being
  // what a fresh process sees.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const std::optional<perfbench::Args> args =
      perfbench::ParseArgs(argc, argv);
  if (!args.has_value()) {
    std::fprintf(stderr,
                 "usage: websra_perfbench --workload replay|serve|live "
                 "--seed N [--seconds S] [--trace 0|1] [--quick] "
                 "[--work-dir DIR]\n");
    return 2;
  }
  return perfbench::Run(*args);
}
