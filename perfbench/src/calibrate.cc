#include "calibrate.h"

#include <cstring>
#include <thread>

#include "spans.h"

namespace perfbench {
namespace {

constexpr std::size_t kTableSlots = std::size_t{1} << 18;  // 2 MB
constexpr std::size_t kInserts = 150'000;
constexpr std::size_t kLookups = 900'000;
constexpr std::size_t kTextBytes = 1u << 20;
constexpr std::size_t kCopyBytes = 1u << 20;
constexpr int kCopies = 16;

std::uint64_t SplitMix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

Calibrator::Calibrator(int lanes) : lanes_(static_cast<std::size_t>(lanes)) {
  for (Lane& lane : lanes_) {
    lane.table.assign(kTableSlots, 0);
    lane.text.assign(kTextBytes, ' ');
    lane.src.assign(kCopyBytes, 'x');
    lane.dst.assign(kCopyBytes, 0);
  }
}

std::uint64_t Calibrator::Kernel(Lane* lane) {
  std::uint64_t sum = 0;

  // Random-access hash-table work over 2 MB: linear probing, as a
  // per-user state map does.
  std::uint64_t* table = lane->table.data();
  std::memset(table, 0, kTableSlots * sizeof(std::uint64_t));
  const std::size_t mask = kTableSlots - 1;
  for (std::size_t i = 0; i < kInserts; ++i) {
    const std::uint64_t key = SplitMix(i) | 1;
    std::size_t slot = key & mask;
    while (table[slot] != 0 && table[slot] != key) slot = (slot + 1) & mask;
    table[slot] = key;
  }
  for (std::size_t i = 0; i < kLookups; ++i) {
    const std::uint64_t key = SplitMix(i % (2 * kInserts)) | 1;
    std::size_t slot = key & mask;
    while (table[slot] != 0 && table[slot] != key) slot = (slot + 1) & mask;
    sum += table[slot] == key;
  }

  // Byte-wise rendering and parsing of decimal fields, as a log parser
  // does.
  char* text = lane->text.data();
  std::size_t pos = 0;
  for (std::uint64_t i = 0; pos + 24 < kTextBytes; ++i) {
    std::uint64_t value = SplitMix(i) % 1'000'000'007;
    char digits[20];
    int n = 0;
    do {
      digits[n++] = static_cast<char>('0' + value % 10);
      value /= 10;
    } while (value != 0);
    while (n > 0) text[pos++] = digits[--n];
    text[pos++] = i % 8 == 7 ? '\n' : ' ';
  }
  std::uint64_t field = 0;
  for (std::size_t i = 0; i < pos; ++i) {
    const char c = text[i];
    if (c >= '0' && c <= '9') {
      field = field * 10 + static_cast<std::uint64_t>(c - '0');
    } else {
      sum += field ^ (c == '\n');
      field = 0;
    }
  }

  // Streaming block copies, as record hand-off does.
  for (int i = 0; i < kCopies; ++i) {
    lane->src[static_cast<std::size_t>(i)] = static_cast<char>(i);
    std::memcpy(lane->dst.data(), lane->src.data(), kCopyBytes);
    sum += static_cast<unsigned char>(lane->dst[kCopyBytes / 2 + i]);
  }
  return sum;
}

std::int64_t Calibrator::Measure() {
  std::vector<std::int64_t> cpu(lanes_.size(), 0);
  std::vector<std::uint64_t> sums(lanes_.size(), 0);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    threads.emplace_back([this, i, &cpu, &sums] {
      const std::int64_t start = ThreadCpuNs();
      sums[i] = Kernel(&lanes_[i]);
      cpu[i] = ThreadCpuNs() - start;
    });
  }
  for (std::thread& thread : threads) thread.join();
  if (checksum_ == 0) checksum_ = sums[0];
  std::int64_t total = 0;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (sums[i] != checksum_) return -1;
    total += cpu[i];
  }
  return total;
}

}  // namespace perfbench
