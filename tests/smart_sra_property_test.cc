// Property sweep for Smart-SRA over simulator-generated workloads and
// adversarial random streams: the invariants of DESIGN.md §6.5.

#include <gtest/gtest.h>

#include <set>

#include "wum/session/smart_sra.h"
#include "wum/session/time_heuristics.h"
#include "wum/simulator/agent_simulator.h"
#include "wum/topology/site_generator.h"

namespace wum {
namespace {

struct PropertyCase {
  std::uint64_t seed;
  double stp;
  double lpp;
  double nip;
};

class SmartSraPropertyTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(SmartSraPropertyTest, OutputInvariantsOnSimulatedAgents) {
  const PropertyCase param = GetParam();
  Rng site_rng(param.seed);
  SiteGeneratorOptions site;
  site.num_pages = 80;
  site.mean_out_degree = 6.0;
  WebGraph graph = *GenerateUniformSite(site, &site_rng);

  AgentProfile profile;
  profile.stp = param.stp;
  profile.lpp = param.lpp;
  profile.nip = param.nip;
  AgentSimulator simulator(&graph, profile);
  SmartSra heuristic(&graph);
  const TimeThresholds& thresholds = heuristic.options().thresholds;

  Rng rng(param.seed ^ 0xDEADBEEF);
  for (int agent = 0; agent < 25; ++agent) {
    Rng agent_rng = rng.Fork();
    AgentTrace trace = *simulator.SimulateAgent(0, &agent_rng);
    Result<std::vector<Session>> sessions =
        heuristic.Reconstruct(trace.server_requests);
    ASSERT_TRUE(sessions.ok()) << sessions.status().ToString();

    // (1) Both rules hold for every output session.
    for (const Session& session : *sessions) {
      ASSERT_FALSE(session.empty());
      EXPECT_TRUE(SatisfiesTopologyRule(session, graph))
          << testing::PrintToString(session);
      EXPECT_TRUE(SatisfiesTimestampRule(session, thresholds.max_page_stay))
          << testing::PrintToString(session);
      EXPECT_LE(session.Duration(), thresholds.max_session_duration);
    }

    // (2) No duplicate sessions.
    std::set<std::vector<PageRequest>> unique;
    for (const Session& session : *sessions) {
      EXPECT_TRUE(unique.insert(session.requests).second)
          << "duplicate: " << testing::PrintToString(session);
    }

    // (3) Every logged request occurrence appears in some session:
    // the per-(page, timestamp) multiset of the log is covered.
    std::set<PageRequest> covered;
    for (const Session& session : *sessions) {
      covered.insert(session.requests.begin(), session.requests.end());
    }
    for (const PageRequest& request : trace.server_requests) {
      EXPECT_TRUE(covered.contains(request))
          << "lost request P" << request.page << " @" << request.timestamp;
    }

    // (4) Phase-1 candidates partition the input and obey both bounds.
    std::vector<Session> candidates =
        heuristic.Phase1(trace.server_requests);
    std::vector<PageRequest> reassembled;
    for (const Session& candidate : candidates) {
      EXPECT_LE(candidate.Duration(), thresholds.max_session_duration);
      EXPECT_TRUE(
          SatisfiesTimestampRule(candidate, thresholds.max_page_stay));
      reassembled.insert(reassembled.end(), candidate.requests.begin(),
                         candidate.requests.end());
    }
    EXPECT_EQ(reassembled, trace.server_requests);
  }
}

TEST_P(SmartSraPropertyTest, EveryRealSessionIsALinkPathInTheTopology) {
  // Sanity link between simulator and heuristic: each ground-truth
  // session is itself a valid Smart-SRA-style session, so the capture
  // metric is well-posed.
  const PropertyCase param = GetParam();
  Rng site_rng(param.seed * 31);
  SiteGeneratorOptions site;
  site.num_pages = 50;
  site.mean_out_degree = 5.0;
  WebGraph graph = *GenerateUniformSite(site, &site_rng);

  AgentProfile profile;
  profile.stp = param.stp;
  profile.lpp = param.lpp;
  profile.nip = param.nip;
  AgentSimulator simulator(&graph, profile);
  Rng rng(param.seed ^ 0xFACE);
  for (int agent = 0; agent < 25; ++agent) {
    Rng agent_rng = rng.Fork();
    AgentTrace trace = *simulator.SimulateAgent(0, &agent_rng);
    for (const Session& real : trace.real_sessions) {
      EXPECT_TRUE(SatisfiesTopologyRule(real, graph));
      EXPECT_TRUE(SatisfiesTimestampRule(real, Minutes(10)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BehaviourGrid, SmartSraPropertyTest,
    ::testing::Values(
        PropertyCase{1, 0.05, 0.30, 0.30},   // Table 5 defaults
        PropertyCase{2, 0.01, 0.30, 0.30},   // long agents
        PropertyCase{3, 0.20, 0.30, 0.30},   // short agents
        PropertyCase{4, 0.05, 0.00, 0.30},   // no backtracking
        PropertyCase{5, 0.05, 0.90, 0.30},   // heavy backtracking
        PropertyCase{6, 0.05, 0.30, 0.00},   // no re-entry
        PropertyCase{7, 0.05, 0.30, 0.90},   // heavy re-entry
        PropertyCase{8, 0.10, 0.60, 0.60},   // chaotic
        PropertyCase{9, 0.50, 0.10, 0.10},   // tiny sessions
        PropertyCase{10, 0.05, 0.45, 0.45}));

TEST(SmartSraAdversarialTest, RandomStreamsNeverViolateInvariants) {
  // Fully random (non-navigational) streams: pages and gaps arbitrary.
  Rng rng(2024);
  SiteGeneratorOptions site;
  site.num_pages = 30;
  site.mean_out_degree = 3.0;
  Rng site_rng(77);
  WebGraph graph = *GenerateUniformSite(site, &site_rng);
  SmartSra heuristic(&graph);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<PageRequest> requests;
    TimeSeconds t = 0;
    const std::size_t n = rng.NextBounded(40);
    for (std::size_t i = 0; i < n; ++i) {
      t += rng.NextInRange(0, 900);
      requests.push_back(
          PageRequest{static_cast<PageId>(rng.NextBounded(30)), t});
    }
    Result<std::vector<Session>> sessions = heuristic.Reconstruct(requests);
    ASSERT_TRUE(sessions.ok());
    std::set<PageRequest> covered;
    for (const Session& session : *sessions) {
      EXPECT_TRUE(SatisfiesTopologyRule(session, graph));
      EXPECT_TRUE(SatisfiesTimestampRule(
          session, heuristic.options().thresholds.max_page_stay));
      covered.insert(session.requests.begin(), session.requests.end());
    }
    for (const PageRequest& request : requests) {
      EXPECT_TRUE(covered.contains(request));
    }
  }
}

}  // namespace
}  // namespace wum
