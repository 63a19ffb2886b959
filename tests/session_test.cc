#include "wum/session/session.h"

#include <gtest/gtest.h>

#include "wum/topology/site_generator.h"

namespace wum {
namespace {

TEST(SessionTest, EmptySession) {
  Session session;
  EXPECT_TRUE(session.empty());
  EXPECT_EQ(session.size(), 0u);
  EXPECT_EQ(session.Duration(), 0);
  EXPECT_TRUE(session.PageSequence().empty());
}

TEST(SessionTest, DurationAndSequence) {
  Session session = MakeSession({3, 7, 3}, {10, 40, 100});
  EXPECT_EQ(session.size(), 3u);
  EXPECT_EQ(session.Duration(), 90);
  EXPECT_EQ(session.PageSequence(), (std::vector<PageId>{3, 7, 3}));
}

TEST(SessionTest, ToStringFormat) {
  Session session = MakeSession({1, 2}, {0, 5});
  EXPECT_EQ(SessionToString(session), "[P1 @0, P2 @5]");
  EXPECT_EQ(SessionToString(Session{}), "[]");
}

TEST(SessionTest, GoogletestPrintsValuesNotBytes) {
  const Session session = MakeSession({1, 2}, {0, 5});
  EXPECT_EQ(testing::PrintToString(session), "[P1 @0, P2 @5]");
  EXPECT_EQ(testing::PrintToString(session.requests[1]), "P2 @5");
  EXPECT_EQ(testing::PrintToString(std::vector<Session>{session}),
            "{ [P1 @0, P2 @5] }");
}

TEST(ValidateRequestStreamTest, AcceptsSortedValidStream) {
  Session s = MakeSession({0, 1, 1}, {0, 10, 10});
  EXPECT_TRUE(ValidateRequestStream(s.requests, 5).ok());
}

TEST(ValidateRequestStreamTest, RejectsUnsorted) {
  Session s = MakeSession({0, 1}, {10, 5});
  EXPECT_TRUE(ValidateRequestStream(s.requests, 5).IsInvalidArgument());
}

TEST(ValidateRequestStreamTest, RejectsOutOfRangePage) {
  Session s = MakeSession({9}, {0});
  EXPECT_TRUE(ValidateRequestStream(s.requests, 5).IsInvalidArgument());
}

TEST(ValidateRequestStreamTest, EmptyStreamOk) {
  EXPECT_TRUE(ValidateRequestStream({}, 5).ok());
}

TEST(TimestampRuleTest, GapBoundEnforced) {
  EXPECT_TRUE(SatisfiesTimestampRule(MakeSession({0, 1}, {0, 600}), 600));
  EXPECT_FALSE(SatisfiesTimestampRule(MakeSession({0, 1}, {0, 601}), 600));
  EXPECT_TRUE(SatisfiesTimestampRule(MakeSession({0, 1}, {5, 5}), 600));
  EXPECT_FALSE(SatisfiesTimestampRule(MakeSession({0, 1}, {5, 4}), 600));
  EXPECT_TRUE(SatisfiesTimestampRule(Session{}, 600));
  EXPECT_TRUE(SatisfiesTimestampRule(MakeSession({0}, {0}), 600));
}

TEST(TopologyRuleTest, ConsecutiveLinksRequired) {
  WebGraph graph = MakeFigure1Topology();
  // [P1, P13, P34, P23] is a path in Figure 1 (ids 0, 1, 4, 3).
  EXPECT_TRUE(
      SatisfiesTopologyRule(MakeSession({0, 1, 4, 3}, {0, 1, 2, 3}), graph));
  // [P1, P20, P13]: P20 has no link to P13.
  EXPECT_FALSE(
      SatisfiesTopologyRule(MakeSession({0, 2, 1}, {0, 1, 2}), graph));
  EXPECT_TRUE(SatisfiesTopologyRule(MakeSession({3}, {0}), graph));
  EXPECT_TRUE(SatisfiesTopologyRule(Session{}, graph));
}

TEST(NavigationRuleTest, AnyEarlierReferrerSuffices) {
  WebGraph graph = MakeFigure1Topology();
  // [P1, P13, P49]: P49's referrer P13 is earlier -- OK even though the
  // session also holds pages without direct links between them.
  EXPECT_TRUE(
      SatisfiesNavigationRule(MakeSession({0, 1, 5}, {0, 1, 2}), graph));
  // [P1, P20, P34]: nothing earlier links to P34 (only P13 does).
  EXPECT_FALSE(
      SatisfiesNavigationRule(MakeSession({0, 2, 4}, {0, 1, 2}), graph));
  // [P1, P20, P13]: P13's referrer P1 is earlier but not adjacent -- the
  // navigation rule allows it (the topology rule would not).
  EXPECT_TRUE(
      SatisfiesNavigationRule(MakeSession({0, 2, 1}, {0, 1, 2}), graph));
}

TEST(SubstringTest, PaperExamples) {
  // §5.1: R = [P1, P3, P5].
  const std::vector<PageId> real = {1, 3, 5};
  // H = [P9, P1, P3, P5, P8]: captured.
  EXPECT_TRUE(ContainsAsSubstring({9, 1, 3, 5, 8}, real));
  // H = [P1, P9, P3, P5, P8]: "P9 interrupts R" -- not captured.
  EXPECT_FALSE(ContainsAsSubstring({1, 9, 3, 5, 8}, real));
}

TEST(SubstringTest, EdgeCases) {
  EXPECT_TRUE(ContainsAsSubstring({1, 2}, {}));
  EXPECT_TRUE(ContainsAsSubstring({}, {}));
  EXPECT_FALSE(ContainsAsSubstring({}, {1}));
  EXPECT_TRUE(ContainsAsSubstring({1}, {1}));
  EXPECT_FALSE(ContainsAsSubstring({1}, {1, 1}));
  EXPECT_TRUE(ContainsAsSubstring({2, 1, 1, 3}, {1, 1}));
}

TEST(SubstringTest, SuffixAndPrefix) {
  EXPECT_TRUE(ContainsAsSubstring({1, 2, 3}, {1, 2}));
  EXPECT_TRUE(ContainsAsSubstring({1, 2, 3}, {2, 3}));
  EXPECT_TRUE(ContainsAsSubstring({1, 2, 3}, {1, 2, 3}));
  EXPECT_FALSE(ContainsAsSubstring({1, 2, 3}, {3, 2}));
}

TEST(SubsequenceTest, GapsAllowed) {
  EXPECT_TRUE(ContainsAsSubsequence({1, 9, 3, 5, 8}, {1, 3, 5}));
  EXPECT_FALSE(ContainsAsSubsequence({1, 9, 5, 3, 8}, {1, 3, 5}));
  EXPECT_TRUE(ContainsAsSubsequence({1, 2, 3}, {}));
  EXPECT_FALSE(ContainsAsSubsequence({}, {1}));
  EXPECT_TRUE(ContainsAsSubsequence({1, 2, 1, 2}, {1, 1, 2}));
}

TEST(SubsequenceTest, SubstringImpliesSubsequence) {
  const std::vector<PageId> haystack = {4, 2, 7, 2, 9};
  for (std::size_t start = 0; start < haystack.size(); ++start) {
    for (std::size_t len = 1; start + len <= haystack.size(); ++len) {
      std::vector<PageId> needle(
          haystack.begin() + static_cast<std::ptrdiff_t>(start),
          haystack.begin() + static_cast<std::ptrdiff_t>(start + len));
      EXPECT_TRUE(ContainsAsSubstring(haystack, needle));
      EXPECT_TRUE(ContainsAsSubsequence(haystack, needle));
    }
  }
}

TEST(PageRequestTest, OrderingIsLexicographic) {
  EXPECT_LT((PageRequest{1, 100}), (PageRequest{2, 0}));
  EXPECT_LT((PageRequest{1, 100}), (PageRequest{1, 101}));
  EXPECT_EQ((PageRequest{1, 100}), (PageRequest{1, 100}));
}

}  // namespace
}  // namespace wum
