// heur4 — Smart-SRA, the paper's contribution (§3).
//
// Phase 1 cuts the per-user request stream into candidate sessions using
// both time-oriented rules (total duration <= delta, page stay <= rho).
// Phase 2 turns each candidate into the set of *maximal* sessions
// satisfying both the timestamp-ordering rule and the topology rule, by
// repeatedly
//   (I)   collecting the occurrences with no remaining in-candidate
//         referrer (an earlier occurrence whose page links to them within
//         the page-stay bound),
//   (II)  removing them from the candidate, and
//   (III) appending them to every constructed session whose last page
//         links to them within the page-stay bound (unextended sessions
//         are carried over unchanged).
//
// Phase 2 computes that construction in one pass. An occurrence's round
// (the iteration of Steps I-II that removes it) is the depth of its
// longest chain of earlier-logged referrers. A session is extended in the
// first later round that holds an occurrence its tail links to, by every
// such occurrence. Session counts are propagated round by round, so the
// max_sessions_per_candidate check runs before any session is built, and
// each session is then built once by walking back from its tail.
//
// Differences from the paper's pseudocode (see DESIGN.md §2): referrers
// are earlier pages (the printed `j>i` contradicts both the formal
// definition and the Table 4 trace), and the step-III time check compares
// against the session's last element. Additionally the extension requires
// a non-negative time difference, because occurrence-removal order is not
// timestamp order and the paper's own timestamp-ordering rule would
// otherwise be violated. Equal timestamps: a tail also extends an
// occurrence logged before it in the same second (the gap is 0), but
// only an earlier-logged occurrence counts as a referrer.

#ifndef WUM_SESSION_SMART_SRA_H_
#define WUM_SESSION_SMART_SRA_H_

#include <span>
#include <string>
#include <vector>

#include "wum/common/time.h"
#include "wum/session/sessionizer.h"
#include "wum/topology/web_graph.h"

namespace wum {

/// Smart Session Reconstruction Algorithm.
class SmartSra : public Sessionizer {
 public:
  struct Options {
    /// delta / rho (paper defaults 30 min / 10 min).
    TimeThresholds thresholds;
    /// Phase 2 enumerates every maximal path, which is exponential on
    /// adversarial topologies (chained link diamonds). Phase 2 returns
    /// OutOfRange, before building any session, when one round of a
    /// candidate would extend sessions into more than this many.
    std::size_t max_sessions_per_candidate = 65536;
    /// Drop exact-duplicate sessions from each candidate's output.
    bool deduplicate = true;
  };

  /// `graph` must outlive the sessionizer. The one-argument form uses
  /// default Options (paper thresholds).
  explicit SmartSra(const WebGraph* graph);
  SmartSra(const WebGraph* graph, Options options);

  std::string name() const override { return "heur4-smart-sra"; }

  Result<std::vector<Session>> Reconstruct(
      std::span<const PageRequest> requests) const override;

  /// Phase 1 only: candidate sessions obeying both time rules.
  std::vector<Session> Phase1(std::span<const PageRequest> requests) const;

  /// Phase 2 only: maximal topology-consistent sessions of one candidate.
  /// The candidate must be timestamp-sorted.
  Result<std::vector<Session>> Phase2(const Session& candidate) const;

  const Options& options() const { return options_; }

 private:
  const WebGraph* graph_;
  Options options_;
};

}  // namespace wum

#endif  // WUM_SESSION_SMART_SRA_H_
