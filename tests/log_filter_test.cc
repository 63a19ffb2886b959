#include "wum/clf/log_filter.h"

#include <gtest/gtest.h>

namespace wum {
namespace {

LogRecord RecordFor(const std::string& url, int status = 200,
                    HttpMethod method = HttpMethod::kGet,
                    const std::string& ip = "10.0.0.1") {
  LogRecord record;
  record.client_ip = ip;
  record.url = url;
  record.status_code = status;
  record.method = method;
  return record;
}

TEST(ExtensionFilterTest, DropsDefaultResourceExtensions) {
  ExtensionFilter filter;
  EXPECT_FALSE(filter.Keep(RecordFor("/img/logo.gif")));
  EXPECT_FALSE(filter.Keep(RecordFor("/style.css")));
  EXPECT_FALSE(filter.Keep(RecordFor("/app.js")));
  EXPECT_TRUE(filter.Keep(RecordFor("/pages/p1.html")));
  EXPECT_TRUE(filter.Keep(RecordFor("/")));
}

TEST(ExtensionFilterTest, CaseInsensitive) {
  ExtensionFilter filter;
  EXPECT_FALSE(filter.Keep(RecordFor("/LOGO.GIF")));
  EXPECT_FALSE(filter.Keep(RecordFor("/photo.JpEg")));
}

TEST(ExtensionFilterTest, IgnoresQueryString) {
  ExtensionFilter filter;
  EXPECT_FALSE(filter.Keep(RecordFor("/logo.png?v=2")));
  EXPECT_TRUE(filter.Keep(RecordFor("/page.html?img=x.png")));
}

TEST(ExtensionFilterTest, SuffixTable) {
  // The suffix is compared in place, ASCII case folded on the URL side.
  const struct {
    const char* url;
    bool keep;
  } kCases[] = {
      {".GIF", false},       // nothing before the extension
      {"/a.JPG?x=1", false},  // upper case, query string stripped
      {"/p42.html", true},
      {"/x.jpeg", false},
      {"/jpg", true},  // no dot: not an extension
      {"", true},
  };
  ExtensionFilter filter;
  for (const auto& c : kCases) {
    EXPECT_EQ(filter.Keep(RecordFor(c.url)), c.keep) << "'" << c.url << "'";
  }
}

TEST(ExtensionFilterTest, CustomExtensionList) {
  ExtensionFilter filter({".pdf"});
  EXPECT_FALSE(filter.Keep(RecordFor("/doc.pdf")));
  EXPECT_TRUE(filter.Keep(RecordFor("/logo.gif")));
}

TEST(StatusFilterTest, KeepsSuccessAnd304) {
  StatusFilter filter;
  EXPECT_TRUE(filter.Keep(RecordFor("/x", 200)));
  EXPECT_TRUE(filter.Keep(RecordFor("/x", 204)));
  EXPECT_TRUE(filter.Keep(RecordFor("/x", 304)));
  EXPECT_FALSE(filter.Keep(RecordFor("/x", 301)));
  EXPECT_FALSE(filter.Keep(RecordFor("/x", 404)));
  EXPECT_FALSE(filter.Keep(RecordFor("/x", 500)));
}

TEST(MethodFilterTest, KeepsOnlyGet) {
  MethodFilter filter;
  EXPECT_TRUE(filter.Keep(RecordFor("/x", 200, HttpMethod::kGet)));
  EXPECT_FALSE(filter.Keep(RecordFor("/x", 200, HttpMethod::kPost)));
  EXPECT_FALSE(filter.Keep(RecordFor("/x", 200, HttpMethod::kHead)));
}

TEST(RobotFilterTest, DropsRobotsTxtItself) {
  RobotFilter filter;
  EXPECT_FALSE(filter.Keep(RecordFor("/robots.txt")));
}

TEST(RobotFilterTest, DropsClientsThatFetchedRobotsTxt) {
  std::vector<LogRecord> history = {
      RecordFor("/robots.txt", 200, HttpMethod::kGet, "6.6.6.6"),
      RecordFor("/pages/p1.html", 200, HttpMethod::kGet, "10.0.0.1"),
  };
  RobotFilter filter;
  filter.ObserveForRobots(history);
  EXPECT_FALSE(filter.Keep(RecordFor("/pages/p1.html", 200, HttpMethod::kGet,
                                     "6.6.6.6")));
  EXPECT_TRUE(filter.Keep(RecordFor("/pages/p1.html", 200, HttpMethod::kGet,
                                    "10.0.0.1")));
}

TEST(RobotFilterTest, ObserveIsIdempotent) {
  std::vector<LogRecord> history = {
      RecordFor("/robots.txt", 200, HttpMethod::kGet, "6.6.6.6")};
  RobotFilter filter;
  filter.ObserveForRobots(history);
  filter.ObserveForRobots(history);
  EXPECT_FALSE(filter.Keep(RecordFor("/x", 200, HttpMethod::kGet, "6.6.6.6")));
}

TEST(FilterChainTest, AppliesConjunction) {
  FilterChain chain = FilterChain::Standard();
  std::vector<LogRecord> records = {
      RecordFor("/pages/p1.html"),                          // kept
      RecordFor("/logo.gif"),                               // extension
      RecordFor("/pages/p2.html", 404),                     // status
      RecordFor("/pages/p3.html", 200, HttpMethod::kPost),  // method
  };
  std::vector<LogRecord> kept = chain.Apply(records);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].url, "/pages/p1.html");
}

TEST(FilterChainTest, StatsCountDropsPerFilter) {
  FilterChain chain = FilterChain::Standard();  // method, status, extension
  std::vector<LogRecord> records = {
      RecordFor("/a.html", 200, HttpMethod::kPost),
      RecordFor("/b.html", 500),
      RecordFor("/c.gif"),
      RecordFor("/d.gif"),
      RecordFor("/e.html"),
  };
  chain.Apply(records);
  ASSERT_EQ(chain.stats().size(), 3u);
  EXPECT_EQ(chain.stats()[0].name, "method");
  EXPECT_EQ(chain.stats()[0].dropped, 1u);
  EXPECT_EQ(chain.stats()[1].name, "status");
  EXPECT_EQ(chain.stats()[1].dropped, 1u);
  EXPECT_EQ(chain.stats()[2].name, "extension");
  EXPECT_EQ(chain.stats()[2].dropped, 2u);
}

TEST(FilterChainTest, EmptyChainKeepsEverything) {
  FilterChain chain;
  std::vector<LogRecord> records = {RecordFor("/x.gif", 500)};
  EXPECT_EQ(chain.Apply(records).size(), 1u);
}

TEST(FilterChainTest, OrderPreserved) {
  FilterChain chain = FilterChain::Standard();
  std::vector<LogRecord> records = {
      RecordFor("/pages/p2.html"),
      RecordFor("/pages/p1.html"),
  };
  std::vector<LogRecord> kept = chain.Apply(records);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].url, "/pages/p2.html");
  EXPECT_EQ(kept[1].url, "/pages/p1.html");
}

}  // namespace
}  // namespace wum
