// ToolRuntime: the one observability + durability surface shared by the
// websra_* tools. Every tool that takes --metrics-out/--metrics-every/
// --metrics-series/--trace-out/--log-level (and, when durable,
// --checkpoint-dir/--checkpoint-every-records/--resume) parses and
// starts them through this runtime, so websra_sessionize,
// websra_simulate and websra_serve present identical flags with
// identical semantics. Extracted from the per-tool ObsSession plumbing
// that used to live in each main().

#ifndef WEBSRA_TOOLS_TOOL_RUNTIME_H_
#define WEBSRA_TOOLS_TOOL_RUNTIME_H_

#include <chrono>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#endif

#include "tool_util.h"
#include "wum/common/result.h"
#include "wum/common/string_util.h"
#include "wum/common/table.h"
#include "wum/ingest/session_output.h"
#include "wum/obs/log.h"
#include "wum/obs/metrics.h"
#include "wum/obs/reporter.h"
#include "wum/obs/trace.h"

// Build identity injected by tools/CMakeLists.txt; the fallbacks keep
// non-CMake builds (clangd, one-off compiles) working.
#ifndef WEBSRA_VERSION
#define WEBSRA_VERSION "unknown"
#endif
#ifndef WEBSRA_GIT_DESCRIBE
#define WEBSRA_GIT_DESCRIBE "unknown"
#endif

namespace wum_tools {

/// Where --metrics-every snapshots land unless --metrics-series says
/// otherwise.
inline constexpr char kDefaultMetricsSeriesPath[] = "metrics.series.jsonl";

/// Human-readable rollup of a metrics snapshot, rendered with
/// wum::Table — identical across every tool's end-of-run output.
inline void PrintMetricsSummary(const wum::obs::MetricsSnapshot& snapshot) {
  wum::Table table({"metric", "kind", "value"});
  for (const auto& counter : snapshot.counters) {
    table.AddRow({counter.name, "counter", std::to_string(counter.value)});
  }
  for (const auto& gauge : snapshot.gauges) {
    table.AddRow({gauge.name, "gauge", std::to_string(gauge.value)});
  }
  for (const auto& histogram : snapshot.histograms) {
    table.AddRow({histogram.name, "histogram",
                  "count=" + std::to_string(histogram.count) +
                      " mean=" + wum::FormatDouble(histogram.mean(), 1) +
                      "us p50=" + wum::FormatDouble(histogram.p50(), 1) +
                      "us p90=" + wum::FormatDouble(histogram.p90(), 1) +
                      "us p99=" + wum::FormatDouble(histogram.p99(), 1) +
                      "us max=" + wum::FormatDouble(histogram.max, 1) +
                      "us"});
  }
  table.Render(&std::cout);
}

/// Durable checkpointing configuration (--checkpoint-dir and friends),
/// parsed identically for every durable tool.
struct CheckpointConfig {
  std::string dir;
  std::uint64_t every_records = 100000;
  bool resume = false;
};

/// Which optional surfaces a tool opts into.
struct RuntimeFeatures {
  /// Accept --checkpoint-dir/--checkpoint-every-records/--resume.
  bool durability = false;
  /// Keep the metric registry live even without --metrics-out (daemons:
  /// the admin STATS command must always have numbers to report).
  bool always_metrics = false;
};

/// The started runtime: a metric registry the tool wires into its
/// components, the optional trace recorder and periodic reporter, and
/// the parsed checkpoint configuration. Start() at the top of Run,
/// Finish() at the bottom.
class ToolRuntime {
 public:
  /// The runtime's flag names, for Flags::CheckKnown. Splice into the
  /// tool's own set.
  static std::set<std::string> FlagNames(const RuntimeFeatures& features) {
    std::set<std::string> names = {"metrics-out", "metrics-every",
                                   "metrics-series", "log-level", "trace-out"};
    if (features.durability) {
      names.insert({"checkpoint-dir", "checkpoint-every-records", "resume"});
    }
    return names;
  }

  /// `known` plus the runtime's flags, for CheckKnown.
  static std::set<std::string> WithFlags(std::set<std::string> known,
                                         const RuntimeFeatures& features) {
    std::set<std::string> names = FlagNames(features);
    known.insert(names.begin(), names.end());
    return known;
  }

  /// Applies --log-level, activates the registry (--metrics-out,
  /// --metrics-every, or always_metrics), starts the --trace-out
  /// recorder and the --metrics-every reporter, and parses the
  /// checkpoint flags when the tool is durable.
  static wum::Result<ToolRuntime> Start(const Flags& flags,
                                        RuntimeFeatures features) {
    // A peer that disappears mid-reply must surface as EPIPE on the
    // write, never as a process-killing SIGPIPE. The socket layer also
    // passes MSG_NOSIGNAL per send, but stdout/stderr pipes (a died
    // `websra_serve | head`) have no such flag — the process-wide
    // disposition is the backstop.
#if defined(__unix__) || defined(__APPLE__)
    std::signal(SIGPIPE, SIG_IGN);
#endif
    ToolRuntime runtime;
    runtime.registry_ = std::make_unique<wum::obs::MetricRegistry>();
    if (flags.Has("log-level")) {
      WUM_ASSIGN_OR_RETURN(std::string name, flags.GetRequired("log-level"));
      WUM_ASSIGN_OR_RETURN(wum::obs::LogLevel level,
                           wum::obs::ParseLogLevel(name));
      wum::obs::Logger::Default().set_min_level(level);
    }
    if (features.always_metrics || flags.Has("metrics-out") ||
        flags.Has("metrics-every")) {
      runtime.metrics_ = runtime.registry_.get();
    }
    if (runtime.metrics_ != nullptr) {
      // Process identity + uptime, uniform across every tool:
      // `wum_build_info{...} 1` in the Prometheus exposition, the
      // "infos" section in the JSON export. Tools append run-specific
      // labels (engine config fingerprint) via SetBuildLabel.
      runtime.build_labels_ = {{"version", WEBSRA_VERSION},
                               {"git", WEBSRA_GIT_DESCRIBE}};
      runtime.registry_->SetInfo("build.info", runtime.build_labels_);
      wum::obs::Gauge uptime =
          runtime.registry_->GetGauge("obs.uptime_seconds");
      const double started_us = wum::obs::internal::NowMicros();
      runtime.registry_->AddProbe([uptime, started_us]() mutable {
        const double now_us = wum::obs::internal::NowMicros();
        uptime.Set(now_us > started_us
                       ? static_cast<std::uint64_t>((now_us - started_us) /
                                                    1e6)
                       : 0);
      });
    }
    if (flags.Has("trace-out")) {
      wum::obs::TraceRecorder::Options options;
      options.metrics = runtime.metrics_;
      runtime.trace_ = std::make_unique<wum::obs::TraceRecorder>(options);
    }
    if (flags.Has("metrics-every")) {
      WUM_ASSIGN_OR_RETURN(std::uint64_t seconds,
                           flags.GetUint("metrics-every", 1));
      if (seconds == 0) {
        return wum::Status::InvalidArgument(
            "--metrics-every must be >= 1 second");
      }
      wum::obs::MetricsReporter::Options options;
      options.interval = std::chrono::seconds(seconds);
      options.path =
          flags.GetString("metrics-series", kDefaultMetricsSeriesPath);
      WUM_ASSIGN_OR_RETURN(runtime.reporter_,
                           wum::obs::MetricsReporter::Start(
                               runtime.registry_.get(), std::move(options)));
    } else if (flags.Has("metrics-series")) {
      return wum::Status::InvalidArgument(
          "--metrics-series requires --metrics-every");
    }
    if (features.durability) {
      if (flags.Has("checkpoint-dir")) {
        CheckpointConfig config;
        WUM_ASSIGN_OR_RETURN(config.dir, flags.GetRequired("checkpoint-dir"));
        WUM_ASSIGN_OR_RETURN(
            config.every_records,
            flags.GetUint("checkpoint-every-records", 100000));
        if (config.every_records == 0) {
          return wum::Status::InvalidArgument(
              "--checkpoint-every-records must be >= 1");
        }
        config.resume = flags.Has("resume");
        runtime.checkpoint_ = std::move(config);
      } else if (flags.Has("checkpoint-every-records") ||
                 flags.Has("resume")) {
        return wum::Status::InvalidArgument(
            "--checkpoint-every-records/--resume require --checkpoint-dir");
      }
    }
    return runtime;
  }

  /// The registry for instrumented components, or null when metrics are
  /// disabled (components then hold disabled handles and skip the
  /// clock). Non-null whenever always_metrics was requested.
  wum::obs::MetricRegistry* metrics() const { return metrics_; }

  wum::obs::TraceRecorder* trace() const { return trace_.get(); }

  /// Handle for instrumented components; disabled without --trace-out.
  wum::obs::Tracer tracer() const { return wum::obs::TracerIn(trace_.get()); }

  /// Parsed --checkpoint-dir configuration; nullopt when absent (or the
  /// tool is not durable).
  const std::optional<CheckpointConfig>& checkpoint() const {
    return checkpoint_;
  }

  /// Creates the engine emitting into `output`, then opens the output's
  /// journal. With --resume the engine first restores from the
  /// checkpoint directory; a directory holding no checkpoint yet starts
  /// fresh, with a note on stderr. `external_replay`: see
  /// EngineOptions::resume_with_external_replay.
  wum::Result<std::unique_ptr<wum::StreamEngine>> StartEngine(
      const wum::EngineOptions& options, wum::ingest::SessionOutput* output,
      bool external_replay) const {
    const bool resume = checkpoint_.has_value() && checkpoint_->resume;
    wum::EngineOptions resume_options = options;
    if (resume) {
      resume_options.resume_from(checkpoint_->dir);
      if (external_replay) resume_options.resume_with_external_replay();
    }
    wum::Result<std::unique_ptr<wum::StreamEngine>> created =
        wum::StreamEngine::Create(resume ? resume_options : options, output);
    if (resume && !created.ok() && created.status().IsNotFound()) {
      std::cerr << "--resume: " << created.status().message()
                << "; starting fresh\n";
      created = wum::StreamEngine::Create(options, output);
    }
    WUM_RETURN_NOT_OK(created.status());
    WUM_RETURN_NOT_OK(output->Open(**created));
    if ((*created)->resumed()) {
      std::cerr << "resumed from checkpoint: "
                << (*created)->resumed_records_seen() << " records covered, "
                << output->resumed_offsets().size() << " client offsets, "
                << output->resumed_journal_bytes()
                << " committed journal bytes\n";
    }
    return created;
  }

  /// Adds (or overwrites) one label on the wum_build_info metric —
  /// run-specific identity like the engine config fingerprint, set once
  /// the tool has parsed its own flags. No-op when metrics are off.
  void SetBuildLabel(const std::string& key, const std::string& value) {
    if (metrics_ == nullptr) return;
    for (auto& [existing_key, existing_value] : build_labels_) {
      if (existing_key == key) {
        existing_value = value;
        registry_->SetInfo("build.info", build_labels_);
        return;
      }
    }
    build_labels_.emplace_back(key, value);
    registry_->SetInfo("build.info", build_labels_);
  }

  /// End-of-run counterpart: stops the reporter (writing its final
  /// snapshot), exports the trace, writes --metrics-out and prints the
  /// summary table whenever metrics were enabled.
  wum::Status Finish(const Flags& flags) {
    if (reporter_ != nullptr) {
      WUM_RETURN_NOT_OK(reporter_->Stop());
      std::cout << "wrote " << reporter_->snapshots_written()
                << " metric snapshots to "
                << flags.GetString("metrics-series", kDefaultMetricsSeriesPath)
                << "\n";
    }
    if (trace_ != nullptr) {
      WUM_ASSIGN_OR_RETURN(std::string path, flags.GetRequired("trace-out"));
      WUM_RETURN_NOT_OK(trace_->WriteChromeTrace(path));
      std::cout << "wrote trace (" << trace_->events_recorded() << " events, "
                << trace_->events_dropped() << " dropped) to " << path << "\n";
    }
    if (metrics_ != nullptr) {
      const wum::obs::MetricsSnapshot snapshot = metrics_->Snapshot();
      PrintMetricsSummary(snapshot);
      if (flags.Has("metrics-out")) {
        WUM_ASSIGN_OR_RETURN(std::string path,
                             flags.GetRequired("metrics-out"));
        WUM_RETURN_NOT_OK(wum::obs::WriteMetricsFile(snapshot, path));
        std::cout << "wrote metrics to " << path << "\n";
      }
    }
    return wum::Status::OK();
  }

 private:
  ToolRuntime() = default;

  // Owned registry: a stable address for component wiring while the
  // runtime itself stays movable (Result-friendly).
  std::unique_ptr<wum::obs::MetricRegistry> registry_;
  wum::obs::MetricRegistry* metrics_ = nullptr;
  std::unique_ptr<wum::obs::TraceRecorder> trace_;
  std::unique_ptr<wum::obs::MetricsReporter> reporter_;
  std::optional<CheckpointConfig> checkpoint_;
  std::vector<std::pair<std::string, std::string>> build_labels_;
};

}  // namespace wum_tools

#endif  // WEBSRA_TOOLS_TOOL_RUNTIME_H_
