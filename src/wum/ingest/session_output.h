// SessionOutput: where a front end's closed sessions go, and how they
// become the session file at the end of a run.
//
// Both front ends — websra_sessionize --streaming replaying a file and
// websra_serve reading sockets — hand the engine one of these as its
// SessionSink. Without checkpointing, sessions collect in memory. With
// it, they append to a binary journal in the checkpoint directory whose
// flushed length rides in every checkpoint's sink_state; a resume
// truncates the journal back to that committed length, so sessions
// emitted after the last checkpoint of a killed run are re-emitted by
// the replay, never duplicated. Either way the run ends with one
// stable sort by user key and one WriteSessionsFile, so the output is
// deterministic regardless of shard timing.

#ifndef WUM_INGEST_SESSION_OUTPUT_H_
#define WUM_INGEST_SESSION_OUTPUT_H_

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "wum/common/result.h"
#include "wum/session/session_io.h"
#include "wum/stream/engine.h"

namespace wum::ingest {

/// Durable per-producer replay offsets: (client-id, bytes absorbed).
/// websra_serve hands them back to resuming clients as the HELLO
/// skip-bytes reply; a file replay has none.
using ClientOffsets = std::vector<std::pair<std::string, std::uint64_t>>;

/// The checkpoint sink_state codec of every front end: a magic tag, the
/// journal state (committed journal length) and the per-producer
/// offsets, in the ckpt wire format. Decoding anything else — notably
/// the bare decimal journal length older websra_sessionize builds
/// stored, whose records_seen counted cleaned rather than parsed
/// records — fails with a ParseError saying so.
std::string EncodeSinkState(std::string_view journal_state,
                            const ClientOffsets& offsets);
Status DecodeSinkState(std::string_view encoded, std::string* journal_state,
                       ClientOffsets* offsets);

class SessionOutput final : public SessionSink {
 public:
  /// `journal_dir` empty: sessions collect in memory. Otherwise they
  /// append to `journal_dir`/journal.sessions-bin once Open has run.
  explicit SessionOutput(std::string journal_dir);

  Status Accept(const std::string& user_key, Session session) override;

  /// Opens the journal once the engine exists (the committed length
  /// lives in the checkpoint the engine resumed from). A fresh engine
  /// gets a new journal; a resumed one has its sink_state decoded, the
  /// journal truncated to the committed length and reopened for append,
  /// and its per-producer offsets kept for resumed_offsets(). No-op
  /// without a journal. Call before the first record is offered.
  Status Open(const StreamEngine& engine);

  /// The journal's flushed length — the journal_state of a sink_state.
  Result<std::string> JournalState();

  /// A complete sink_state with no per-producer offsets (file replay).
  Result<std::string> SinkState();

  /// Offsets recovered by Open from a resumed checkpoint.
  const ClientOffsets& resumed_offsets() const { return resumed_offsets_; }

  /// Journal bytes a resume kept (0 when fresh or not journaling).
  std::uint64_t resumed_journal_bytes() const { return resumed_bytes_; }

  /// After the engine finished: reads the journal back (when there is
  /// one), stable-sorts by user key and writes `path`. Returns the
  /// number of sessions written.
  Result<std::size_t> WriteSorted(const std::string& path,
                                  SessionFormat format);

 private:
  std::string journal_path_;  // empty = in memory
  std::ofstream journal_;
  std::vector<UserSession> sessions_;
  ClientOffsets resumed_offsets_;
  std::uint64_t resumed_bytes_ = 0;
};

}  // namespace wum::ingest

#endif  // WUM_INGEST_SESSION_OUTPUT_H_
