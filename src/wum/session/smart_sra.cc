#include "wum/session/smart_sra.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>

#include "wum/session/time_heuristics.h"

namespace wum {

SmartSra::SmartSra(const WebGraph* graph) : SmartSra(graph, Options()) {}

SmartSra::SmartSra(const WebGraph* graph, Options options)
    : graph_(graph), options_(std::move(options)) {}

std::vector<Session> SmartSra::Phase1(
    std::span<const PageRequest> requests) const {
  return SplitByBothTimeRules(requests, options_.thresholds);
}

Result<std::vector<Session>> SmartSra::Phase2(const Session& candidate) const {
  const std::vector<PageRequest>& reqs = candidate.requests;
  const std::uint32_t n = static_cast<std::uint32_t>(reqs.size());
  if (n <= 1) {
    std::vector<Session> result;
    if (n == 1) result.push_back(candidate);
    return result;
  }
  const TimeSeconds rho = options_.thresholds.max_page_stay;

  // Step 1, one window scan: every pair (from, to) with Link[page_from,
  // page_to] and 0 <= t_to - t_from <= rho. `from` is an earlier-logged
  // referrer of `to`, or a later-logged occurrence with the same
  // timestamp, which can extend a session but is no referrer. An
  // occurrence's round, the Step I-II iteration that removes it, is the
  // depth of its longest chain of earlier-logged referrers.
  struct Link {
    std::uint32_t from, to;
  };
  std::vector<Link> links;
  links.reserve(n);
  // round, extended_in, first_parent (n + 1 entries) and order share one
  // allocation: phase 2 runs once per candidate on the shard threads, and
  // four separate blocks raised the replay benchmark's peak RSS by 4 %.
  std::vector<std::uint32_t> arrays(4 * n + 1, 0);
  const std::span<std::uint32_t> round(arrays.data(), n);
  for (std::uint32_t i = 1; i < n; ++i) {
    for (std::uint32_t j = i;
         j-- > 0 && reqs[i].timestamp - reqs[j].timestamp <= rho;) {
      if (graph_->HasLink(reqs[j].page, reqs[i].page)) {
        links.push_back({j, i});
        round[i] = std::max(round[i], round[j] + 1);
      }
      if (reqs[j].timestamp == reqs[i].timestamp &&
          graph_->HasLink(reqs[i].page, reqs[j].page)) {
        links.push_back({i, j});
      }
    }
  }

  // Figure 2's Step III keeps the sessions ending at one tail together,
  // newer rounds' blocks first: the session list is ordered by (round
  // descending, index ascending). A tail's block is extended in the first
  // later round that holds an occurrence it links to, by every such
  // occurrence, and carried over unchanged until then. The tails a start
  // extends are its parents, kept in list order. Every start after round
  // 0 has one: its latest referrer's block is still a tail then.
  constexpr std::uint32_t kNever = std::numeric_limits<std::uint32_t>::max();
  const std::span<std::uint32_t> extended_in(arrays.data() + n, n);
  std::fill(extended_in.begin(), extended_in.end(), kNever);
  for (const Link& link : links) {
    if (round[link.to] > round[link.from]) {
      extended_in[link.from] = std::min(extended_in[link.from], round[link.to]);
    }
  }
  const auto list_order = [&](std::uint32_t a, std::uint32_t b) {
    return round[a] != round[b] ? round[a] > round[b] : a < b;
  };
  std::erase_if(links, [&](const Link& link) {
    return extended_in[link.from] != round[link.to];
  });
  std::sort(links.begin(), links.end(), [&](const Link& a, const Link& b) {
    return a.to != b.to ? a.to < b.to : list_order(a.from, b.from);
  });
  const std::span<std::uint32_t> first_parent(arrays.data() + 2 * n, n + 1);
  for (const Link& link : links) ++first_parent[link.to + 1];
  std::partial_sum(first_parent.begin(), first_parent.end(),
                   first_parent.begin());

  // Step 2, round by round: a start's block holds the sum of its parents'
  // session counts, saturated above the cap. A round builds the blocks of
  // all its starts and fails when they hold more sessions than the cap;
  // here that is known before any session is built.
  const std::span<std::uint32_t> order(arrays.data() + 3 * n + 1, n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), list_order);
  const std::size_t cap = options_.max_sessions_per_candidate;
  // Saturating sum; the limit is cap + 1 unless that overflows.
  const auto add = [limit = std::max(cap + 1, cap)](std::size_t a,
                                                    std::size_t b) {
    return a >= limit - b ? limit : a + b;
  };
  std::vector<std::size_t> count(n, 1);
  std::uint32_t built_round = 0;
  std::size_t built = 0;  // sessions of `built_round`
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::uint32_t i = *it;
    if (round[i] == 0) continue;
    if (round[i] != built_round) {
      built_round = round[i];
      built = 0;
    }
    count[i] = 0;
    for (std::uint32_t p = first_parent[i]; p < first_parent[i + 1]; ++p) {
      count[i] = add(count[i], count[links[p].from]);
    }
    built = add(built, count[i]);
    if (built > cap) {
      return Status::OutOfRange(
          "Smart-SRA phase 2 exceeded max_sessions_per_candidate (" +
          std::to_string(cap) +
          "); the topology induces exponentially many maximal paths");
    }
  }

  // Step 3: walk from each final tail back through its parents, in list
  // order, building every session once.
  std::vector<Session> result;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> path;  // (i, next)
  for (std::uint32_t tail : order) {
    if (extended_in[tail] != kNever) continue;
    path.push_back({tail, first_parent[tail]});
    while (!path.empty()) {
      auto& [i, next] = path.back();
      if (round[i] == 0) {
        Session& session = result.emplace_back();
        session.requests.reserve(path.size());
        for (auto it = path.rbegin(); it != path.rend(); ++it) {
          session.requests.push_back(reqs[it->first]);
        }
      }
      if (next == first_parent[i + 1]) {
        path.pop_back();
      } else {
        const std::uint32_t parent = links[next++].from;
        path.push_back({parent, first_parent[parent]});
      }
    }
  }
  if (options_.deduplicate) {
    std::sort(result.begin(), result.end(),
              [](const Session& a, const Session& b) {
                return a.requests < b.requests;
              });
    result.erase(std::unique(result.begin(), result.end()), result.end());
  }
  return result;
}

Result<std::vector<Session>> SmartSra::Reconstruct(
    std::span<const PageRequest> requests) const {
  WUM_RETURN_NOT_OK(ValidateRequestStream(requests, graph_->num_pages()));
  std::vector<Session> output;
  for (const Session& candidate : Phase1(requests)) {
    WUM_ASSIGN_OR_RETURN(std::vector<Session> sessions, Phase2(candidate));
    for (Session& session : sessions) output.push_back(std::move(session));
  }
  return output;
}

}  // namespace wum
