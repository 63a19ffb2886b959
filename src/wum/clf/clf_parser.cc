#include "wum/clf/clf_parser.h"

#include "wum/common/string_util.h"
#include "wum/obs/log.h"

namespace wum {
namespace {

/// Every reject names the CLF field it tripped on, so a sample error
/// like "line 7: field 'status': ..." pins down both where and what.
Status FieldError(std::string_view field, std::string_view detail) {
  return Status::ParseError("field '" + std::string(field) + "': " +
                            std::string(detail));
}

Result<HttpMethod> ParseMethod(std::string_view token) {
  if (token == "GET") return HttpMethod::kGet;
  if (token == "POST") return HttpMethod::kPost;
  if (token == "HEAD") return HttpMethod::kHead;
  return FieldError("request",
                    "unsupported method '" + std::string(token) + "'");
}

}  // namespace

Result<LogRecordRef> ParseClfLineRef(std::string_view line) {
  line = StripWhitespace(line);
  if (line.empty()) return Status::ParseError("empty line");

  LogRecordRef record;

  // %h: client host.
  std::size_t pos = line.find(' ');
  if (pos == std::string_view::npos) {
    return FieldError("host", "missing (no space-delimited fields)");
  }
  record.client_ip = line.substr(0, pos);

  // %l %u: identity fields, up to the '['.
  std::size_t bracket = line.find('[', pos);
  if (bracket == std::string_view::npos) {
    return FieldError("timestamp", "missing '[' before timestamp");
  }
  std::size_t bracket_end = line.find(']', bracket);
  if (bracket_end == std::string_view::npos) {
    return FieldError("timestamp", "missing ']' after timestamp");
  }
  Result<TimeSeconds> timestamp =
      ParseClfTimestamp(line.substr(bracket + 1, bracket_end - bracket - 1));
  if (!timestamp.ok()) {
    return FieldError("timestamp", timestamp.status().message());
  }
  record.timestamp = *timestamp;

  // "%r": the quoted request.
  std::size_t quote = line.find('"', bracket_end);
  if (quote == std::string_view::npos) {
    return FieldError("request", "missing opening quote");
  }
  std::size_t quote_end = line.find('"', quote + 1);
  if (quote_end == std::string_view::npos) {
    return FieldError("request", "missing closing quote");
  }
  std::string_view request = line.substr(quote + 1, quote_end - quote - 1);
  std::string_view request_parts[3];
  std::size_t num_parts = 0;
  for (std::size_t start = 0; start < request.size();) {
    const std::size_t space = request.find(' ', start);
    const std::string_view part =
        space == std::string_view::npos
            ? request.substr(start)
            : request.substr(start, space - start);
    if (!part.empty()) {
      if (num_parts == 3) {
        return FieldError("request", "must be 'METHOD URL PROTOCOL'");
      }
      request_parts[num_parts++] = part;
    }
    if (space == std::string_view::npos) break;
    start = space + 1;
  }
  if (num_parts != 3) {
    return FieldError("request", "must be 'METHOD URL PROTOCOL'");
  }
  WUM_ASSIGN_OR_RETURN(record.method, ParseMethod(request_parts[0]));
  record.url = request_parts[1];
  record.protocol = request_parts[2];
  if (record.protocol != "HTTP/1.0" && record.protocol != "HTTP/1.1") {
    return FieldError("request", "unsupported protocol '" +
                                     std::string(record.protocol) + "'");
  }

  // %>s %b: status and bytes, then optionally the combined-format
  // "referer" "user-agent" quoted fields.
  std::string_view tail = StripWhitespace(line.substr(quote_end + 1));
  const std::size_t first_space = tail.find(' ');
  if (first_space == std::string_view::npos) {
    return FieldError("status", "expected '<status> <bytes>' after request");
  }
  std::string_view status_token = tail.substr(0, first_space);
  std::string_view rest = StripWhitespace(tail.substr(first_space + 1));
  const std::size_t second_space = rest.find(' ');
  std::string_view bytes_token =
      second_space == std::string_view::npos ? rest
                                             : rest.substr(0, second_space);
  std::string_view extras =
      second_space == std::string_view::npos
          ? std::string_view()
          : StripWhitespace(rest.substr(second_space + 1));

  Result<std::int64_t> status = ParseInt64(status_token);
  if (!status.ok()) return FieldError("status", status.status().message());
  if (*status < 100 || *status > 599) {
    return FieldError("status", "status code out of range");
  }
  record.status_code = static_cast<int>(*status);
  if (bytes_token == "-") {
    record.bytes = -1;
  } else {
    Result<std::int64_t> bytes = ParseInt64(bytes_token);
    if (!bytes.ok()) return FieldError("bytes", bytes.status().message());
    if (*bytes < 0) return FieldError("bytes", "negative byte count");
    record.bytes = *bytes;
  }

  if (!extras.empty()) {
    // Combined Log Format: "referer" "user-agent".
    auto take_quoted =
        [&extras](std::string_view field) -> Result<std::string_view> {
      if (extras.empty() || extras.front() != '"') {
        return FieldError(field, "expected quoted combined-format field");
      }
      const std::size_t closing = extras.find('"', 1);
      if (closing == std::string_view::npos) {
        return FieldError(field, "unterminated combined-format field");
      }
      std::string_view value = extras.substr(1, closing - 1);
      extras = StripWhitespace(extras.substr(closing + 1));
      if (value == "-") value = std::string_view();
      return value;
    };
    WUM_ASSIGN_OR_RETURN(record.referrer, take_quoted("referer"));
    WUM_ASSIGN_OR_RETURN(record.user_agent, take_quoted("user-agent"));
    if (!extras.empty()) {
      return FieldError("user-agent", "trailing content after combined fields");
    }
  }
  return record;
}

Result<LogRecord> ParseClfLine(std::string_view line) {
  WUM_ASSIGN_OR_RETURN(LogRecordRef record, ParseClfLineRef(line));
  return record.Materialize();
}

Result<LogRecordRef> ClfParser::AccountLine(std::string_view line) {
  ++stats_.lines_seen;
  Result<LogRecordRef> parsed = [&] {
    // Span per line, seq = the 1-based line number (shard is always 0:
    // parsing runs upstream of partitioning).
    obs::ScopedSpan span(tracer_, "parse", 0, stats_.lines_seen);
    return ParseClfLineRef(line);
  }();
  if (parsed.ok()) {
    ++stats_.records_parsed;
  } else {
    ++stats_.lines_rejected;
    obs::LogWarn("clf.reject")("line", stats_.lines_seen)(
        "error", parsed.status().message());
    if (reject_handler_ != nullptr) {
      reject_handler_(stats_.lines_seen, line, parsed.status());
    }
    if (stats_.sample_errors.size() < kMaxSampleErrors) {
      // stats_.lines_seen is the 1-based number of the line just read.
      stats_.sample_errors.push_back("line " +
                                     std::to_string(stats_.lines_seen) + ": " +
                                     parsed.status().message());
    }
  }
  return parsed;
}

void ClfParser::PublishStats(const Stats& before) {
  lines_seen_.Increment(stats_.lines_seen - before.lines_seen);
  records_parsed_.Increment(stats_.records_parsed - before.records_parsed);
  lines_rejected_.Increment(stats_.lines_rejected - before.lines_rejected);
}

Status ClfParser::ParseChunk(std::string_view chunk,
                             std::vector<LogRecordRef>* records) {
  const Stats before{stats_.lines_seen, stats_.records_parsed,
                     stats_.lines_rejected, {}};
  while (!chunk.empty()) {
    const std::size_t newline = chunk.find('\n');
    // A chunk need not end in '\n': the final line of a file (or of a
    // line-aligned ChunkReader chunk) parses like any other.
    const std::string_view line = newline == std::string_view::npos
                                      ? chunk
                                      : chunk.substr(0, newline);
    chunk = newline == std::string_view::npos ? std::string_view()
                                              : chunk.substr(newline + 1);
    if (StripWhitespace(line).empty()) {
      ++stats_.lines_seen;
      continue;
    }
    Result<LogRecordRef> parsed = AccountLine(line);
    if (parsed.ok()) records->push_back(*parsed);
  }
  PublishStats(before);
  return Status::OK();
}

Status ClfParser::ParseStream(std::istream* in,
                              std::vector<LogRecord>* records) {
  const Stats before{stats_.lines_seen, stats_.records_parsed,
                     stats_.lines_rejected, {}};
  std::string line;
  while (std::getline(*in, line)) {
    if (StripWhitespace(line).empty()) {
      ++stats_.lines_seen;
      continue;
    }
    Result<LogRecordRef> parsed = AccountLine(line);
    if (parsed.ok()) records->push_back(parsed->Materialize());
  }
  PublishStats(before);
  if (in->bad()) return Status::IoError("stream read failure");
  return Status::OK();
}

}  // namespace wum
