#include "wum/ingest/session_output.h"

#include <algorithm>
#include <filesystem>
#include <system_error>

#include "wum/ckpt/codec.h"
#include "wum/common/string_util.h"

namespace wum::ingest {

namespace {
// sink_state layout: magic uvarint, journal state string, offset count,
// then (client-id, offset) pairs.
constexpr std::uint64_t kSinkStateMagic = 0x53525645;  // "SRVE"
}  // namespace

std::string EncodeSinkState(std::string_view journal_state,
                            const ClientOffsets& offsets) {
  ckpt::Encoder encoder;
  encoder.PutUvarint(kSinkStateMagic);
  encoder.PutString(journal_state);
  encoder.PutUvarint(offsets.size());
  for (const auto& [client_id, offset] : offsets) {
    encoder.PutString(client_id);
    encoder.PutUvarint(offset);
  }
  return encoder.Release();
}

Status DecodeSinkState(std::string_view encoded, std::string* journal_state,
                       ClientOffsets* offsets) {
  ckpt::Decoder decoder(encoded);
  Result<std::uint64_t> magic = decoder.GetUvarint();
  if (!magic.ok() || *magic != kSinkStateMagic) {
    return Status::ParseError(
        "checkpoint sink_state has no websra sink-state magic (older "
        "websra_sessionize builds stored a bare journal length and counted "
        "cleaned records, so their checkpoints cannot be resumed); delete "
        "the checkpoint directory and rerun");
  }
  WUM_ASSIGN_OR_RETURN(*journal_state, decoder.GetString());
  WUM_ASSIGN_OR_RETURN(const std::uint64_t count, decoder.GetUvarint());
  offsets->clear();
  offsets->reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    WUM_ASSIGN_OR_RETURN(std::string client_id, decoder.GetString());
    WUM_ASSIGN_OR_RETURN(const std::uint64_t offset, decoder.GetUvarint());
    offsets->emplace_back(std::move(client_id), offset);
  }
  return decoder.ExpectEnd();
}

SessionOutput::SessionOutput(std::string journal_dir) {
  if (!journal_dir.empty()) {
    journal_path_ = std::move(journal_dir) + "/journal.sessions-bin";
  }
}

Status SessionOutput::Accept(const std::string& user_key, Session session) {
  if (journal_path_.empty()) {
    sessions_.push_back(UserSession{user_key, std::move(session)});
    return Status::OK();
  }
  Status status = AppendSessionBinary(
      UserSession{user_key, std::move(session)}, &journal_);
  if (!status.ok()) {
    return Status::IoError("journal " + journal_path_ + ": " +
                           status.message());
  }
  return Status::OK();
}

Status SessionOutput::Open(const StreamEngine& engine) {
  if (journal_path_.empty()) return Status::OK();
  const std::filesystem::path dir =
      std::filesystem::path(journal_path_).parent_path();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create " + dir.string() + ": " +
                           ec.message());
  }
  if (!engine.resumed()) {
    journal_.open(journal_path_, std::ios::binary | std::ios::trunc);
    if (!journal_) return Status::IoError("cannot open " + journal_path_);
    journal_ << SessionsBinaryHeaderLine() << '\n';
    return Status::OK();
  }
  std::string journal_state;
  WUM_RETURN_NOT_OK(DecodeSinkState(engine.resumed_sink_state(),
                                    &journal_state, &resumed_offsets_));
  WUM_ASSIGN_OR_RETURN(resumed_bytes_, ParseUint64(journal_state));
  std::filesystem::resize_file(journal_path_, resumed_bytes_, ec);
  if (ec) {
    return Status::IoError("cannot truncate " + journal_path_ +
                           " to its committed length: " + ec.message());
  }
  journal_.open(journal_path_, std::ios::binary | std::ios::app);
  if (!journal_) return Status::IoError("cannot reopen " + journal_path_);
  return Status::OK();
}

Result<std::string> SessionOutput::JournalState() {
  journal_.flush();
  if (!journal_) return Status::IoError("journal write failed: " + journal_path_);
  return std::to_string(static_cast<std::uint64_t>(journal_.tellp()));
}

Result<std::string> SessionOutput::SinkState() {
  WUM_ASSIGN_OR_RETURN(std::string journal_state, JournalState());
  return EncodeSinkState(journal_state, {});
}

Result<std::size_t> SessionOutput::WriteSorted(const std::string& path,
                                               SessionFormat format) {
  if (!journal_path_.empty()) {
    journal_.close();
    if (!journal_) {
      return Status::IoError("journal write failed: " + journal_path_);
    }
    WUM_ASSIGN_OR_RETURN(sessions_, ReadSessionsFile(journal_path_));
  }
  std::stable_sort(sessions_.begin(), sessions_.end(),
                   [](const UserSession& a, const UserSession& b) {
                     return a.user_key < b.user_key;
                   });
  WUM_RETURN_NOT_OK(WriteSessionsFile(sessions_, path, format));
  return sessions_.size();
}

}  // namespace wum::ingest
