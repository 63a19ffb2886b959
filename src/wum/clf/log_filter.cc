#include "wum/clf/log_filter.h"

#include <algorithm>

#include "wum/common/string_util.h"

namespace wum {

ExtensionFilter::ExtensionFilter()
    : ExtensionFilter({".gif", ".jpg", ".jpeg", ".png", ".ico", ".css", ".js",
                       ".swf", ".bmp"}) {}

ExtensionFilter::ExtensionFilter(std::vector<std::string> blocked_extensions)
    : blocked_extensions_(std::move(blocked_extensions)) {
  for (std::string& ext : blocked_extensions_) ext = AsciiToLower(ext);
}

namespace {

/// EndsWith with ASCII case folded on `text` only (`lower_suffix` is
/// already lower case), compared in place: no lowered copy of the URL.
bool EndsWithLowered(std::string_view text, std::string_view lower_suffix) {
  if (text.size() < lower_suffix.size()) return false;
  const std::string_view tail = text.substr(text.size() - lower_suffix.size());
  for (std::size_t i = 0; i < tail.size(); ++i) {
    char c = tail[i];
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    if (c != lower_suffix[i]) return false;
  }
  return true;
}

}  // namespace

bool ExtensionFilter::Keep(const LogRecord& record) const {
  // Compare against the path only (strip any query string).
  std::string_view path = record.url;
  std::size_t query = path.find('?');
  if (query != std::string_view::npos) path = path.substr(0, query);
  for (const std::string& ext : blocked_extensions_) {
    if (EndsWithLowered(path, ext)) return false;
  }
  return true;
}

bool StatusFilter::Keep(const LogRecord& record) const {
  return (record.status_code >= 200 && record.status_code < 300) ||
         record.status_code == 304;
}

bool MethodFilter::Keep(const LogRecord& record) const {
  return record.method == HttpMethod::kGet;
}

void RobotFilter::ObserveForRobots(const std::vector<LogRecord>& records) {
  for (const LogRecord& record : records) ObserveForRobots(ViewOf(record));
}

void RobotFilter::ObserveForRobots(const LogRecordRef& record) {
  if (record.url != "/robots.txt") return;
  auto it = std::lower_bound(robot_ips_.begin(), robot_ips_.end(),
                             record.client_ip);
  if (it == robot_ips_.end() || *it != record.client_ip) {
    robot_ips_.insert(it, std::string(record.client_ip));
  }
}

bool RobotFilter::Keep(const LogRecord& record) const {
  if (record.url == "/robots.txt") return false;
  return !std::binary_search(robot_ips_.begin(), robot_ips_.end(),
                             record.client_ip);
}

void FilterChain::Add(std::unique_ptr<LogFilter> filter) {
  stats_.push_back(FilterStats{filter->name(), 0});
  filters_.push_back(std::move(filter));
}

std::vector<LogRecord> FilterChain::Apply(
    const std::vector<LogRecord>& records) {
  std::vector<LogRecord> kept;
  kept.reserve(records.size());
  for (const LogRecord& record : records) {
    bool keep = true;
    for (std::size_t i = 0; i < filters_.size(); ++i) {
      if (!filters_[i]->Keep(record)) {
        ++stats_[i].dropped;
        keep = false;
        break;
      }
    }
    if (keep) kept.push_back(record);
  }
  return kept;
}

FilterChain FilterChain::Standard() {
  FilterChain chain;
  chain.Add(std::make_unique<MethodFilter>());
  chain.Add(std::make_unique<StatusFilter>());
  chain.Add(std::make_unique<ExtensionFilter>());
  return chain;
}

}  // namespace wum
