#include "wum/session/smart_sra.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "wum/topology/site_generator.h"

namespace wum {
namespace {

// Figure 1 ids: 0=P1, 1=P13, 2=P20, 3=P23, 4=P34, 5=P49.

std::vector<std::vector<PageId>> PageSequences(
    const std::vector<Session>& sessions) {
  std::vector<std::vector<PageId>> sequences;
  sequences.reserve(sessions.size());
  for (const Session& session : sessions) {
    sequences.push_back(session.PageSequence());
  }
  std::sort(sequences.begin(), sequences.end());
  return sequences;
}

// Chain of k link diamonds a->{b,c}->d, one request per second: each
// diamond doubles the number of maximal paths (2^k). `graph` needs
// 3k + 1 pages.
std::vector<PageRequest> DiamondChain(int k, WebGraph* graph) {
  std::vector<PageRequest> requests = {{0, 0}};
  for (int d = 0; d < k; ++d) {
    const PageId junction = static_cast<PageId>(3 * d);
    graph->AddLink(junction, junction + 1);
    graph->AddLink(junction, junction + 2);
    graph->AddLink(junction + 1, junction + 3);
    graph->AddLink(junction + 2, junction + 3);
    for (PageId p = junction + 1; p <= junction + 3; ++p) {
      requests.push_back({p, static_cast<TimeSeconds>(p)});
    }
  }
  return requests;
}

TEST(SmartSraTest, ReproducesPaperTables3And4) {
  WebGraph graph = MakeFigure1Topology();
  SmartSra heuristic(&graph);
  // Table 3: P1, P20, P13, P49, P34, P23 at minutes 0, 6, 9, 12, 14, 15.
  auto requests = MakeSession({0, 2, 1, 5, 4, 3},
                              {Minutes(0), Minutes(6), Minutes(9),
                               Minutes(12), Minutes(14), Minutes(15)})
                      .requests;
  Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
  ASSERT_TRUE(sessions.ok()) << sessions.status().ToString();
  // The paper's three maximal sessions:
  //   [P1, P13, P34, P23], [P1, P13, P49, P23], [P1, P20, P23].
  std::vector<std::vector<PageId>> expected = {
      {0, 1, 4, 3}, {0, 1, 5, 3}, {0, 2, 3}};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(PageSequences(*sessions), expected);
}

TEST(SmartSraTest, Phase1MatchesBothTimeRules) {
  WebGraph graph = MakeFigure1Topology();
  SmartSra heuristic(&graph);
  // Table 1 timings (0, 6, 15, 29, 32, 47 min): the page-stay rule cuts
  // at 15->29 (14 min) and 32->47 (15 min).
  auto requests = MakeSession({0, 2, 1, 5, 4, 3},
                              {Minutes(0), Minutes(6), Minutes(15),
                               Minutes(29), Minutes(32), Minutes(47)})
                      .requests;
  std::vector<Session> candidates = heuristic.Phase1(requests);
  ASSERT_EQ(candidates.size(), 3u);
  EXPECT_EQ(candidates[0].PageSequence(), (std::vector<PageId>{0, 2, 1}));
  EXPECT_EQ(candidates[1].PageSequence(), (std::vector<PageId>{5, 4}));
  EXPECT_EQ(candidates[2].PageSequence(), (std::vector<PageId>{3}));
}

TEST(SmartSraTest, OutputSatisfiesBothRules) {
  WebGraph graph = MakeFigure1Topology();
  SmartSra heuristic(&graph);
  auto requests = MakeSession({0, 2, 1, 5, 4, 3},
                              {Minutes(0), Minutes(6), Minutes(9),
                               Minutes(12), Minutes(14), Minutes(15)})
                      .requests;
  Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
  ASSERT_TRUE(sessions.ok());
  for (const Session& session : *sessions) {
    EXPECT_TRUE(SatisfiesTopologyRule(session, graph))
        << testing::PrintToString(session);
    EXPECT_TRUE(SatisfiesTimestampRule(
        session, heuristic.options().thresholds.max_page_stay))
        << testing::PrintToString(session);
  }
}

TEST(SmartSraTest, UnrelatedPagesBecomeSingletonSessions) {
  WebGraph graph(3);  // no edges at all
  SmartSra heuristic(&graph);
  auto requests = MakeSession({0, 1, 2}, {0, 60, 120}).requests;
  Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
  ASSERT_TRUE(sessions.ok());
  std::vector<std::vector<PageId>> expected = {{0}, {1}, {2}};
  EXPECT_EQ(PageSequences(*sessions), expected);
}

TEST(SmartSraTest, ExtensionRejectsBackwardTime) {
  // Topology: 0 -> 1 and 2 -> 1. Stream [0@0, 1@300, 2@540].
  // Occurrence 2 is removed in iteration 1 (nothing links to it), so the
  // session [2] exists when 1 is placed; Link[2, 1] holds but extending
  // [2@540] with 1@300 would run backwards in time and must be refused.
  WebGraph graph(3);
  graph.AddLink(0, 1);
  graph.AddLink(2, 1);
  SmartSra heuristic(&graph);
  auto requests = MakeSession({0, 1, 2}, {0, 300, 540}).requests;
  Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
  ASSERT_TRUE(sessions.ok());
  std::vector<std::vector<PageId>> expected = {{0, 1}, {2}};
  EXPECT_EQ(PageSequences(*sessions), expected);
  for (const Session& session : *sessions) {
    EXPECT_TRUE(SatisfiesTimestampRule(session, Minutes(10)));
  }
}

TEST(SmartSraTest, ReferrerBeyondPageStayDoesNotCount) {
  // 0 -> 1 exists but 11 minutes apart: 1 opens its own session even
  // though the candidate (via an intermediate page) stays unbroken.
  WebGraph graph(3);
  graph.AddLink(0, 1);
  graph.AddLink(0, 2);
  graph.AddLink(2, 0);  // filler links; keep phase 1 in one candidate
  SmartSra heuristic(&graph);
  auto requests =
      MakeSession({0, 2, 1}, {0, Minutes(9), Minutes(11)}).requests;
  Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
  ASSERT_TRUE(sessions.ok());
  // 1's only referrer (0) is 11 min away (> rho), and 2 has no link to 1,
  // so [1] must be a separate session; [0, 2] follows the 0->2 link.
  std::vector<std::vector<PageId>> expected = {{0, 2}, {1}};
  EXPECT_EQ(PageSequences(*sessions), expected);
}

TEST(SmartSraTest, BranchingProducesAllMaximalPaths) {
  // Diamond: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3.
  WebGraph graph(4);
  graph.AddLink(0, 1);
  graph.AddLink(0, 2);
  graph.AddLink(1, 3);
  graph.AddLink(2, 3);
  SmartSra heuristic(&graph);
  auto requests = MakeSession({0, 1, 2, 3}, {0, 60, 120, 180}).requests;
  Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
  ASSERT_TRUE(sessions.ok());
  std::vector<std::vector<PageId>> expected = {{0, 1, 3}, {0, 2, 3}};
  EXPECT_EQ(PageSequences(*sessions), expected);
}

TEST(SmartSraTest, SessionLimitGuardsExponentialBlowup) {
  constexpr int kDiamonds = 6;  // 64 paths
  WebGraph graph(3 * kDiamonds + 1);
  const std::vector<PageRequest> requests = DiamondChain(kDiamonds, &graph);
  SmartSra::Options tight;
  tight.max_sessions_per_candidate = 8;
  SmartSra limited(&graph, tight);
  EXPECT_TRUE(limited.Reconstruct(requests).status().IsOutOfRange());

  SmartSra::Options roomy;
  roomy.max_sessions_per_candidate = 1 << 12;
  SmartSra unlimited(&graph, roomy);
  Result<std::vector<Session>> sessions = unlimited.Reconstruct(requests);
  ASSERT_TRUE(sessions.ok());
  EXPECT_EQ(sessions->size(), 1u << kDiamonds);
}

TEST(SmartSraTest, HostileDiamondChainFailsBeforeBuildingSessions) {
  // A producer controls the candidate. 16 diamonds (65,536 paths) still
  // fit the default cap; at 17 phase 2 counts the paths and refuses
  // before it builds any session.
  WebGraph graph17(3 * 17 + 1);
  const std::vector<PageRequest> hostile = DiamondChain(17, &graph17);
  ASSERT_EQ(hostile.size(), 52u);
  Result<std::vector<Session>> refused = SmartSra(&graph17).Phase2({hostile});
  ASSERT_TRUE(refused.status().IsOutOfRange());
  EXPECT_EQ(refused.status().message(),
            "Smart-SRA phase 2 exceeded max_sessions_per_candidate (65536); "
            "the topology induces exponentially many maximal paths");

  WebGraph graph16(3 * 16 + 1);
  Result<std::vector<Session>> fits =
      SmartSra(&graph16).Phase2({DiamondChain(16, &graph16)});
  ASSERT_TRUE(fits.ok()) << fits.status().ToString();
  EXPECT_EQ(fits->size(), 65536u);
}

TEST(SmartSraTest, EqualTimestampTailExtendsRegardlessOfDeduplication) {
  // Links X->Y and Z->Y; requests (X,0), (Y,10), (Z,10). Z is logged
  // after Y but at the same second, so the session [Z] (round 0) is a
  // tail that links to Y within [0, rho] when Y starts in round 1, and
  // both [X] and [Z] are extended. Deduplication only drops duplicates,
  // so it must not change the answer.
  WebGraph graph(3);  // 0=X, 1=Y, 2=Z
  graph.AddLink(0, 1);
  graph.AddLink(2, 1);
  const Session candidate = MakeSession({0, 1, 2}, {0, 10, 10});
  const std::vector<Session> expected = {MakeSession({0, 1}, {0, 10}),
                                         MakeSession({2, 1}, {10, 10})};
  for (bool deduplicate : {true, false}) {
    SmartSra::Options options;
    options.deduplicate = deduplicate;
    Result<std::vector<Session>> sessions =
        SmartSra(&graph, options).Phase2(candidate);
    ASSERT_TRUE(sessions.ok()) << sessions.status().ToString();
    EXPECT_EQ(*sessions, expected) << "deduplicate=" << deduplicate;
  }
}

TEST(SmartSraTest, DeduplicationRemovesIdenticalBranches) {
  // Two occurrences of page 1 can yield identical extension sessions;
  // at minimum, dedup must leave no exact duplicates.
  WebGraph graph(3);
  graph.AddLink(0, 1);
  graph.AddLink(1, 2);
  SmartSra heuristic(&graph);
  auto requests = MakeSession({0, 1, 2}, {0, 10, 20}).requests;
  Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
  ASSERT_TRUE(sessions.ok());
  auto sequences = PageSequences(*sessions);
  EXPECT_EQ(std::adjacent_find(sequences.begin(), sequences.end()),
            sequences.end());
}

TEST(SmartSraTest, EmptyAndSingleInput) {
  WebGraph graph = MakeFigure1Topology();
  SmartSra heuristic(&graph);
  EXPECT_TRUE(heuristic.Reconstruct({})->empty());
  auto requests = MakeSession({4}, {1000}).requests;
  Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
  ASSERT_TRUE(sessions.ok());
  ASSERT_EQ(sessions->size(), 1u);
  EXPECT_EQ((*sessions)[0].PageSequence(), (std::vector<PageId>{4}));
}

TEST(SmartSraTest, RejectsInvalidStreams) {
  WebGraph graph = MakeFigure1Topology();
  SmartSra heuristic(&graph);
  auto unsorted = MakeSession({0, 1}, {60, 0}).requests;
  EXPECT_TRUE(heuristic.Reconstruct(unsorted).status().IsInvalidArgument());
  auto out_of_range = MakeSession({77}, {0}).requests;
  EXPECT_TRUE(
      heuristic.Reconstruct(out_of_range).status().IsInvalidArgument());
}

TEST(SmartSraTest, Name) {
  WebGraph graph = MakeFigure1Topology();
  EXPECT_EQ(SmartSra(&graph).name(), "heur4-smart-sra");
}

TEST(SmartSraTest, Phase2HandlesDuplicateOccurrences) {
  // The same page requested twice (e.g. via a shared proxy): both
  // occurrences must survive into the output.
  WebGraph graph(2);
  graph.AddLink(0, 1);
  SmartSra heuristic(&graph);
  auto requests = MakeSession({0, 0, 1}, {0, 30, 60}).requests;
  Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
  ASSERT_TRUE(sessions.ok());
  std::size_t zero_occurrences = 0;
  for (const Session& session : *sessions) {
    for (const PageRequest& request : session.requests) {
      if (request.page == 0) ++zero_occurrences;
    }
  }
  EXPECT_GE(zero_occurrences, 2u);
}

TEST(SmartSraTest, RecoversInterleavedSessionsTheTimeHeuristicsCannot) {
  // The paper's behaviour-3 motif: user walks P1 -> P13 -> P34, backtracks
  // to P1 through the cache, then requests P20. The log is
  // [P1, P13, P34, P20]; the real sessions are [P1, P13, P34] and
  // [P1, P20]. Smart-SRA recovers both exactly.
  WebGraph graph = MakeFigure1Topology();
  SmartSra heuristic(&graph);
  auto requests = MakeSession({0, 1, 4, 2}, {0, 120, 240, 420}).requests;
  Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
  ASSERT_TRUE(sessions.ok());
  std::vector<std::vector<PageId>> expected = {{0, 1, 4}, {0, 2}};
  EXPECT_EQ(PageSequences(*sessions), expected);
}

}  // namespace
}  // namespace wum
