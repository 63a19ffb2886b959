#include "wum/clf/chunk_reader.h"

#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define WUM_CHUNK_READER_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define WUM_CHUNK_READER_HAS_MMAP 0
#endif

namespace wum {
namespace {

#if WUM_CHUNK_READER_HAS_MMAP
/// Maps `path` read-only. Returns false (without failing the open) when
/// the file is empty, not a regular file, or the kernel refuses the map —
/// the caller then uses the buffered path.
bool TryMap(const std::string& path, const char** data, std::size_t* size) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  struct stat info;
  if (::fstat(fd, &info) != 0 || !S_ISREG(info.st_mode) || info.st_size <= 0) {
    ::close(fd);
    return false;
  }
  void* mapping = ::mmap(nullptr, static_cast<std::size_t>(info.st_size),
                         PROT_READ, MAP_PRIVATE, fd, 0);
  // The mapping stays valid after close; it holds its own reference.
  ::close(fd);
  if (mapping == MAP_FAILED) return false;
  ::madvise(mapping, static_cast<std::size_t>(info.st_size), MADV_SEQUENTIAL);
  *data = static_cast<const char*>(mapping);
  *size = static_cast<std::size_t>(info.st_size);
  return true;
}
#endif

}  // namespace

Result<ChunkReader> ChunkReader::Open(const std::string& path,
                                      std::size_t chunk_bytes) {
  if (chunk_bytes == 0) {
    return Status::InvalidArgument("chunk_bytes must be positive");
  }
  ChunkReader reader;
  reader.chunk_bytes_ = chunk_bytes;
#if WUM_CHUNK_READER_HAS_MMAP
  if (TryMap(path, &reader.mapping_, &reader.mapping_size_)) {
    return reader;
  }
#endif
  reader.file_.open(path, std::ios::binary);
  if (!reader.file_.is_open()) {
    return Status::IoError("cannot open log file '" + path + "'");
  }
  return reader;
}

ChunkReader::ChunkReader(ChunkReader&& other) noexcept
    : chunk_bytes_(other.chunk_bytes_),
      mapping_(std::exchange(other.mapping_, nullptr)),
      mapping_size_(std::exchange(other.mapping_size_, 0)),
      mapping_pos_(other.mapping_pos_),
      released_(other.released_),
      file_(std::move(other.file_)),
      buffer_(std::move(other.buffer_)),
      carry_(std::move(other.carry_)),
      eof_(other.eof_) {}

ChunkReader& ChunkReader::operator=(ChunkReader&& other) noexcept {
  if (this == &other) return *this;
#if WUM_CHUNK_READER_HAS_MMAP
  if (mapping_ != nullptr) {
    ::munmap(const_cast<char*>(mapping_), mapping_size_);
  }
#endif
  chunk_bytes_ = other.chunk_bytes_;
  mapping_ = std::exchange(other.mapping_, nullptr);
  mapping_size_ = std::exchange(other.mapping_size_, 0);
  mapping_pos_ = other.mapping_pos_;
  released_ = other.released_;
  file_ = std::move(other.file_);
  buffer_ = std::move(other.buffer_);
  carry_ = std::move(other.carry_);
  eof_ = other.eof_;
  return *this;
}

ChunkReader::~ChunkReader() {
#if WUM_CHUNK_READER_HAS_MMAP
  if (mapping_ != nullptr) {
    ::munmap(const_cast<char*>(mapping_), mapping_size_);
  }
#endif
}

std::optional<std::string_view> ChunkReader::Next() {
  if (mapping_ != nullptr) return NextMapped();
  return NextBuffered();
}

std::optional<std::string_view> ChunkReader::NextMapped() {
#if WUM_CHUNK_READER_HAS_MMAP
  // Drop the whole pages of earlier chunks from residency: one pass over
  // a large log then holds about one chunk resident instead of the file.
  // The mapping is private and never written, so the bytes stay readable
  // and refault from the page cache if touched again.
  static const std::size_t page =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t done = mapping_pos_ / page * page;
  if (done > released_) {
    ::madvise(const_cast<char*>(mapping_) + released_, done - released_,
              MADV_DONTNEED);
    released_ = done;
  }
#endif
  if (mapping_pos_ >= mapping_size_) return std::nullopt;
  const std::string_view remaining(mapping_ + mapping_pos_,
                                   mapping_size_ - mapping_pos_);
  if (remaining.size() <= chunk_bytes_) {
    mapping_pos_ = mapping_size_;
    return remaining;
  }
  // Cut at the last newline inside the window; if one chunk-sized window
  // holds no newline at all, extend to the next newline (or EOF) so a
  // pathological long line still arrives whole.
  std::size_t cut = remaining.rfind('\n', chunk_bytes_ - 1);
  if (cut == std::string_view::npos) {
    cut = remaining.find('\n', chunk_bytes_);
    if (cut == std::string_view::npos) {
      mapping_pos_ = mapping_size_;
      return remaining;
    }
  }
  mapping_pos_ += cut + 1;
  return remaining.substr(0, cut + 1);
}

std::optional<std::string_view> ChunkReader::NextBuffered() {
  if (eof_ && carry_.empty()) return std::nullopt;
  buffer_.assign(carry_);
  carry_.clear();
  while (!eof_) {
    const std::size_t old_size = buffer_.size();
    buffer_.resize(old_size + chunk_bytes_);
    file_.read(buffer_.data() + old_size,
               static_cast<std::streamsize>(chunk_bytes_));
    buffer_.resize(old_size + static_cast<std::size_t>(file_.gcount()));
    if (file_.eof()) eof_ = true;
    // Same cut rule as the mapped path: last newline in the window, or
    // keep reading until a long line completes.
    const std::size_t cut = buffer_.rfind('\n');
    if (cut != std::string::npos) {
      carry_.assign(buffer_, cut + 1, std::string::npos);
      buffer_.resize(cut + 1);
      return std::string_view(buffer_);
    }
    // No newline yet: keep extending until the long line completes.
  }
  if (buffer_.empty()) return std::nullopt;
  return std::string_view(buffer_);
}

}  // namespace wum
