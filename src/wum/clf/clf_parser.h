// Robust Common Log Format parsing. Malformed lines are counted and
// reported, never fatal to the stream (real-world access logs are dirty).

#ifndef WUM_CLF_CLF_PARSER_H_
#define WUM_CLF_CLF_PARSER_H_

#include <functional>
#include <istream>
#include <string>
#include <vector>

#include "wum/clf/log_record.h"
#include "wum/common/result.h"
#include "wum/obs/metrics.h"
#include "wum/obs/trace.h"

namespace wum {

/// Parses one CLF line into a zero-copy LogRecordRef whose string fields
/// view into `line` — the caller's buffer must outlive the ref. Accepts
/// the "%h %l %u [%t] \"%r\" %>s %b" layout produced by ClfWriter and by
/// Apache/NCSA httpd; the two identity fields are tolerated but
/// discarded. Parse errors name the offending CLF field, e.g.
/// "field 'status': ...". This is the hot-path entry point; no per-field
/// allocation happens on the success path.
Result<LogRecordRef> ParseClfLineRef(std::string_view line);

/// Owned-record convenience over ParseClfLineRef: parses then
/// Materialize()s. Use for slow paths and tests; batch ingestion should
/// prefer ParseClfLineRef / ClfParser::ParseChunk.
Result<LogRecord> ParseClfLine(std::string_view line);

/// Stream parser with malformed-line accounting.
class ClfParser {
 public:
  struct Stats {
    std::uint64_t lines_seen = 0;
    std::uint64_t records_parsed = 0;
    std::uint64_t lines_rejected = 0;
    /// First few reject reasons, each prefixed with the 1-based line
    /// number and naming the offending field, for diagnostics.
    std::vector<std::string> sample_errors;
  };

  ClfParser() = default;

  /// With a registry, mirrors Stats into the counters "clf.lines_seen",
  /// "clf.records_parsed" and "clf.lines_rejected", once at the end of
  /// every ParseStream/ParseChunk call. `metrics` may be null (all
  /// handles stay disabled) and must otherwise outlive the parser.
  explicit ClfParser(obs::MetricRegistry* metrics)
      : lines_seen_(obs::CounterIn(metrics, "clf.lines_seen")),
        records_parsed_(obs::CounterIn(metrics, "clf.records_parsed")),
        lines_rejected_(obs::CounterIn(metrics, "clf.lines_rejected")) {}

  /// Called once per rejected line with its 1-based number, raw text and
  /// parse error. Generic on purpose: callers route rejects wherever they
  /// like (e.g. a stream-layer DeadLetterQueue) without this package
  /// depending on theirs.
  using RejectHandler = std::function<void(
      std::uint64_t line_number, std::string_view raw_line,
      const Status& reason)>;

  /// Installs `handler` (may be null to remove one). Sampling into
  /// stats().sample_errors continues either way.
  void set_reject_handler(RejectHandler handler) {
    reject_handler_ = std::move(handler);
  }

  /// With an enabled tracer, every line becomes a "parse" span whose
  /// seq is the 1-based line number (disabled by default; the clock is
  /// then never read).
  void set_tracer(obs::Tracer tracer) { tracer_ = tracer; }

  /// Parses every line of `in`; appends good records to `*records`.
  /// IO failure is the only error condition — malformed lines are
  /// tallied in stats().
  Status ParseStream(std::istream* in, std::vector<LogRecord>* records);

  /// Zero-copy batch parse: splits `chunk` on '\n' (a final unterminated
  /// line parses too, so line-aligned ChunkReader chunks compose into
  /// exactly the stream's lines) and appends a LogRecordRef viewing into
  /// `chunk` for every well-formed line. Accounting — stats(), metric
  /// counters, reject handler, line numbering — is identical to feeding
  /// the same lines through ParseStream, and numbering continues across
  /// successive chunks. The refs are only valid while `chunk`'s buffer
  /// is; Materialize() anything that must outlive it.
  Status ParseChunk(std::string_view chunk, std::vector<LogRecordRef>* records);

  const Stats& stats() const { return stats_; }

 private:
  static constexpr std::size_t kMaxSampleErrors = 8;

  /// Shared per-line bookkeeping for ParseStream/ParseChunk: counts the
  /// line, parses it, and routes rejects to the handler and samples.
  Result<LogRecordRef> AccountLine(std::string_view line);

  /// Adds what stats_ gained since `before` to the registry counters.
  void PublishStats(const Stats& before);

  RejectHandler reject_handler_;
  obs::Tracer tracer_;
  Stats stats_;
  obs::Counter lines_seen_;
  obs::Counter records_parsed_;
  obs::Counter lines_rejected_;
};

}  // namespace wum

#endif  // WUM_CLF_CLF_PARSER_H_
