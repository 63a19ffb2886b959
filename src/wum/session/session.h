// Core data model of session reconstruction: page requests, sessions, and
// the rule predicates (timestamp-ordering rule, topology rule) that the
// paper's Smart-SRA guarantees for its output.

#ifndef WUM_SESSION_SESSION_H_
#define WUM_SESSION_SESSION_H_

#include <compare>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "wum/common/status.h"
#include "wum/common/time.h"
#include "wum/topology/web_graph.h"

namespace wum {

/// One page access by one user, as recovered from the access log
/// (IP/user identity is handled one level up by the partitioner).
struct PageRequest {
  PageId page = kInvalidPage;
  TimeSeconds timestamp = 0;

  /// Ordering is lexicographic (page, then timestamp); defined so session
  /// lists can be sorted deterministically for dedup and stable output.
  friend auto operator<=>(const PageRequest&, const PageRequest&) = default;
};

/// An ordered sequence of page requests attributed to one user visit.
struct Session {
  std::vector<PageRequest> requests;

  bool empty() const { return requests.empty(); }
  std::size_t size() const { return requests.size(); }

  /// Wall time between first and last request (0 for <= 1 request).
  TimeSeconds Duration() const;

  /// Page ids in request order.
  std::vector<PageId> PageSequence() const;

  friend bool operator==(const Session&, const Session&) = default;
};

/// Renders "[P3 @120, P7 @185]" for debugging and test failure messages.
std::string SessionToString(const Session& session);

/// Value printers, found by argument-dependent lookup (the googletest
/// convention): a failing EXPECT_EQ on requests or sessions prints
/// "P3 @120" / "[P3 @120, P7 @185]" instead of raw bytes.
void PrintTo(const PageRequest& request, std::ostream* os);
void PrintTo(const Session& session, std::ostream* os);

/// Builds a session from parallel page/timestamp lists (test convenience).
Session MakeSession(const std::vector<PageId>& pages,
                    const std::vector<TimeSeconds>& timestamps);

/// Checks that `requests` is sorted by non-decreasing timestamp and all
/// pages are valid ids for `num_pages` (heuristics require both).
Status ValidateRequestStream(std::span<const PageRequest> requests,
                             std::size_t num_pages);

/// Timestamp-ordering rule (paper §3): strictly increasing timestamps are
/// not required — equal stamps are tolerated — but order must be
/// non-decreasing and every consecutive gap must be <= max_page_stay.
bool SatisfiesTimestampRule(const Session& session,
                            TimeSeconds max_page_stay);

/// Topology rule (paper §3): every consecutive page pair in the session is
/// connected by a hyperlink from the first to the second.
bool SatisfiesTopologyRule(const Session& session, const WebGraph& graph);

/// Navigation-oriented rule (paper §2.2): every page except the first has
/// at least one *earlier* page in the same session with a hyperlink to it.
bool SatisfiesNavigationRule(const Session& session, const WebGraph& graph);

/// True iff `needle`'s page sequence occurs as a *contiguous substring* of
/// `haystack`'s page sequence. This is the paper's capture relation: its
/// §5.1 example rejects [P1,P9,P3,P5,P8] as a capture of [P1,P3,P5]
/// because "P9 interrupts R", i.e. matches must be uninterrupted.
bool ContainsAsSubstring(const std::vector<PageId>& haystack,
                         const std::vector<PageId>& needle);

/// Gap-tolerant variant (true subsequence matching), used only by the
/// capture-relation ablation bench.
bool ContainsAsSubsequence(const std::vector<PageId>& haystack,
                           const std::vector<PageId>& needle);

}  // namespace wum

#endif  // WUM_SESSION_SESSION_H_
