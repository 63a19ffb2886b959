// SessionOutput, the session sink both front ends write through: the
// sorted in-memory path, the journal truncated back to its committed
// length on resume, and the shared sink-state codec refusing the bare
// decimal sink state older websra_sessionize builds checkpointed.

#include "wum/ingest/session_output.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "wum/topology/site_generator.h"

namespace wum::ingest {
namespace {

namespace fs = std::filesystem;

Session OnePage(PageId page, TimeSeconds timestamp) {
  Session session;
  session.requests.push_back(PageRequest{page, timestamp});
  return session;
}

class SessionOutputTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(testing::TempDir()) /
           ("session_output_" + std::string(testing::UnitTest::GetInstance()
                                                ->current_test_info()
                                                ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  EngineOptions Options() const {
    return EngineOptions().set_num_shards(2).use_smart_sra(&graph_);
  }

  /// Takes a checkpoint of a fresh engine whose sink state is `state`.
  void CheckpointWithSinkState(const StreamEngine::SinkStateFn& state) {
    CollectingSessionSink sink;
    Result<std::unique_ptr<StreamEngine>> engine =
        StreamEngine::Create(Options(), &sink);
    ASSERT_TRUE(engine.ok()) << engine.status().message();
    ASSERT_TRUE((*engine)->Checkpoint(dir_.string(), state).ok());
  }

  fs::path dir_;
  WebGraph graph_ = MakeFigure1Topology();
};

TEST_F(SessionOutputTest, InMemoryWritesStablySortedByUserKey) {
  SessionOutput output("");
  ASSERT_TRUE(output.Accept("10.0.0.2", OnePage(1, 100)).ok());
  ASSERT_TRUE(output.Accept("10.0.0.1", OnePage(2, 200)).ok());
  ASSERT_TRUE(output.Accept("10.0.0.2", OnePage(3, 300)).ok());
  fs::create_directories(dir_);
  const std::string path = (dir_ / "out.sessions").string();
  Result<std::size_t> written = output.WriteSorted(path, SessionFormat::kText);
  ASSERT_TRUE(written.ok()) << written.status().message();
  EXPECT_EQ(*written, 3u);

  Result<std::vector<UserSession>> read = ReadSessionsFile(path);
  ASSERT_TRUE(read.ok());
  const std::vector<UserSession> expected = {
      {"10.0.0.1", OnePage(2, 200)},
      {"10.0.0.2", OnePage(1, 100)},
      {"10.0.0.2", OnePage(3, 300)}};
  EXPECT_EQ(*read, expected);
}

// Sessions journaled after the last checkpoint of a killed run are cut
// off on resume — the replay re-emits them, so keeping them would
// duplicate.
TEST_F(SessionOutputTest, ResumeTruncatesJournalToCommittedLength) {
  {
    SessionOutput output(dir_.string());
    CollectingSessionSink sink;
    Result<std::unique_ptr<StreamEngine>> engine =
        StreamEngine::Create(Options(), &sink);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE(output.Open(**engine).ok());
    ASSERT_TRUE(output.Accept("10.0.0.1", OnePage(1, 100)).ok());
    ASSERT_TRUE((*engine)
                    ->Checkpoint(dir_.string(),
                                 [&output] { return output.SinkState(); })
                    .ok());
    ASSERT_TRUE(output.Accept("10.0.0.9", OnePage(2, 200)).ok());
    ASSERT_TRUE(output.JournalState().ok());  // flushed, then "killed"
  }
  SessionOutput output(dir_.string());
  CollectingSessionSink sink;
  Result<std::unique_ptr<StreamEngine>> engine =
      StreamEngine::Create(Options().resume_from(dir_.string()), &sink);
  ASSERT_TRUE(engine.ok()) << engine.status().message();
  ASSERT_TRUE(output.Open(**engine).ok());
  EXPECT_GT(output.resumed_journal_bytes(), 0u);
  EXPECT_TRUE(output.resumed_offsets().empty());
  ASSERT_TRUE(output.Accept("10.0.0.3", OnePage(3, 300)).ok());

  const std::string path = (dir_ / "out.sessions").string();
  Result<std::size_t> written = output.WriteSorted(path, SessionFormat::kText);
  ASSERT_TRUE(written.ok()) << written.status().message();
  Result<std::vector<UserSession>> read = ReadSessionsFile(path);
  ASSERT_TRUE(read.ok());
  const std::vector<UserSession> expected = {{"10.0.0.1", OnePage(1, 100)},
                                             {"10.0.0.3", OnePage(3, 300)}};
  EXPECT_EQ(*read, expected);
}

// Older websra_sessionize builds stored the journal length as a bare
// decimal sink state and counted cleaned records in records_seen. Such
// a checkpoint must be refused with a message that says so — resuming
// it would skip-replay by the wrong count.
TEST_F(SessionOutputTest, BareDecimalSinkStateIsRefused) {
  std::string journal_state;
  ClientOffsets offsets;
  const Status decoded = DecodeSinkState("123456", &journal_state, &offsets);
  EXPECT_TRUE(decoded.IsParseError()) << decoded.ToString();
  EXPECT_NE(decoded.message().find("bare journal length"), std::string::npos)
      << decoded.message();
  EXPECT_TRUE(DecodeSinkState("", &journal_state, &offsets).IsParseError());

  CheckpointWithSinkState(
      []() -> Result<std::string> { return std::string("123456"); });
  ASSERT_FALSE(HasFailure());
  SessionOutput output(dir_.string());
  CollectingSessionSink sink;
  Result<std::unique_ptr<StreamEngine>> engine =
      StreamEngine::Create(Options().resume_from(dir_.string()), &sink);
  ASSERT_TRUE(engine.ok()) << engine.status().message();
  const Status opened = output.Open(**engine);
  EXPECT_TRUE(opened.IsParseError()) << opened.ToString();
}

}  // namespace
}  // namespace wum::ingest
