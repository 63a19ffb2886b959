// Checks the self-time arithmetic (a span's duration minus the part of
// it its children cover) on a hand-built span tree. Exit code 0 = pass.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "spans.h"

namespace {

int failures = 0;

void Expect(const char* what, long long got, long long want) {
  if (got != want) {
    std::printf("FAIL %s: got %lld, want %lld\n", what, got, want);
    ++failures;
  }
}

perfbench::Span Make(const char* name, long long start, long long end,
                     int parent) {
  perfbench::Span span;
  span.name = name;
  span.start_ns = start;
  span.end_ns = end;
  span.parent = parent;
  return span;
}

}  // namespace

int main() {
  // root [0,100)
  //   read   [0,10)     leaf
  //   parse  [10,40)    with child "intern" [15,20)
  //   offer  [40,70)    with two overlapping children [45,55) and
  //                     [50,60) (another thread), covering [45,60)
  //   finish [90,120)   sticks out of root: only [90,100) is covered
  const std::vector<perfbench::Span> spans = {
      Make("root", 0, 100, -1),   Make("read", 0, 10, 0),
      Make("parse", 10, 40, 0),   Make("intern", 15, 20, 2),
      Make("offer", 40, 70, 0),   Make("enqueue", 45, 55, 4),
      Make("enqueue", 50, 60, 4), Make("finish", 90, 120, 0),
  };
  const std::vector<std::int64_t> self = perfbench::SelfTimesNs(spans);
  Expect("root self", self[0], 100 - (10 + 30 + 30 + 10));
  Expect("read self", self[1], 10);
  Expect("parse self", self[2], 30 - 5);
  Expect("intern self", self[3], 5);
  Expect("offer self", self[4], 30 - 15);
  Expect("enqueue self", self[5], 10);
  Expect("finish self", self[7], 30);

  const std::map<std::string, std::int64_t> by_name =
      perfbench::SelfTimeByNameNs(spans);
  Expect("enqueue by name", by_name.at("enqueue"), 20);
  long long total = 0;
  for (const auto& [name, ns] : by_name) total += ns;
  // Self times partition the covered time: the root's wall time plus
  // the part of "finish" outside the root, plus the overlap of the two
  // enqueue spans counted once per span.
  Expect("sum of self times", total, 100 + 20 + 5);

  // From index 4 on only "offer", its two children and "finish" count;
  // their self times still subtract children listed before index 4.
  const std::map<std::string, std::int64_t> tail =
      perfbench::SelfTimeByNameNs(spans, 4);
  Expect("tail names", static_cast<long long>(tail.size()), 3);
  Expect("tail offer", tail.at("offer"), 15);
  Expect("tail finish", tail.at("finish"), 30);

  // SpanLog nesting records parents and end times.
  perfbench::SpanLog log;
  {
    perfbench::ScopedSpan outer(&log, "outer", -1);
    perfbench::ScopedSpan inner(&log, "inner", outer.id());
  }
  const std::vector<perfbench::Span> recorded = log.Snapshot();
  Expect("recorded spans", static_cast<long long>(recorded.size()), 2);
  Expect("inner parent", recorded[1].parent, 0);
  Expect("outer closed", recorded[0].end_ns >= recorded[1].end_ns, 1);

  std::printf(failures == 0 ? "span_selftest: ok\n"
                            : "span_selftest: %d failures\n",
              failures);
  return failures == 0 ? 0 : 1;
}
