#include "wum/session/session.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace wum {

TimeSeconds Session::Duration() const {
  if (requests.size() <= 1) return 0;
  return requests.back().timestamp - requests.front().timestamp;
}

std::vector<PageId> Session::PageSequence() const {
  std::vector<PageId> pages;
  pages.reserve(requests.size());
  for (const PageRequest& request : requests) pages.push_back(request.page);
  return pages;
}

std::string SessionToString(const Session& session) {
  std::ostringstream oss;
  oss << '[';
  for (std::size_t i = 0; i < session.requests.size(); ++i) {
    if (i > 0) oss << ", ";
    PrintTo(session.requests[i], &oss);
  }
  oss << ']';
  return oss.str();
}

void PrintTo(const PageRequest& request, std::ostream* os) {
  *os << 'P' << request.page << " @" << request.timestamp;
}

void PrintTo(const Session& session, std::ostream* os) {
  *os << SessionToString(session);
}

Session MakeSession(const std::vector<PageId>& pages,
                    const std::vector<TimeSeconds>& timestamps) {
  assert(pages.size() == timestamps.size());
  Session session;
  session.requests.reserve(pages.size());
  for (std::size_t i = 0; i < pages.size(); ++i) {
    session.requests.push_back(PageRequest{pages[i], timestamps[i]});
  }
  return session;
}

Status ValidateRequestStream(std::span<const PageRequest> requests,
                             std::size_t num_pages) {
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].page >= num_pages) {
      return Status::InvalidArgument(
          "request " + std::to_string(i) + " references page " +
          std::to_string(requests[i].page) + " outside the topology (" +
          std::to_string(num_pages) + " pages)");
    }
    if (i > 0 && requests[i].timestamp < requests[i - 1].timestamp) {
      return Status::InvalidArgument(
          "request stream not sorted by timestamp at index " +
          std::to_string(i));
    }
  }
  return Status::OK();
}

bool SatisfiesTimestampRule(const Session& session,
                            TimeSeconds max_page_stay) {
  for (std::size_t i = 1; i < session.requests.size(); ++i) {
    const TimeSeconds gap =
        session.requests[i].timestamp - session.requests[i - 1].timestamp;
    if (gap < 0 || gap > max_page_stay) return false;
  }
  return true;
}

bool SatisfiesTopologyRule(const Session& session, const WebGraph& graph) {
  for (std::size_t i = 1; i < session.requests.size(); ++i) {
    if (!graph.HasLink(session.requests[i - 1].page,
                       session.requests[i].page)) {
      return false;
    }
  }
  return true;
}

bool SatisfiesNavigationRule(const Session& session, const WebGraph& graph) {
  for (std::size_t i = 1; i < session.requests.size(); ++i) {
    bool has_referrer = false;
    for (std::size_t j = 0; j < i; ++j) {
      if (graph.HasLink(session.requests[j].page, session.requests[i].page)) {
        has_referrer = true;
        break;
      }
    }
    if (!has_referrer) return false;
  }
  return true;
}

bool ContainsAsSubstring(const std::vector<PageId>& haystack,
                         const std::vector<PageId>& needle) {
  if (needle.empty()) return true;
  if (needle.size() > haystack.size()) return false;
  return std::search(haystack.begin(), haystack.end(), needle.begin(),
                     needle.end()) != haystack.end();
}

bool ContainsAsSubsequence(const std::vector<PageId>& haystack,
                           const std::vector<PageId>& needle) {
  std::size_t matched = 0;
  for (PageId page : haystack) {
    if (matched == needle.size()) break;
    if (page == needle[matched]) ++matched;
  }
  return matched == needle.size();
}

}  // namespace wum
