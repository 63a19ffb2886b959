// Host-speed calibration for the gated CPU-time metrics.
//
// On a shared virtual machine the guest's own instructions run slower
// when the host is busy (hyper-thread siblings, shared caches, memory
// bandwidth), so CPU time per record drifts with neighbour load even
// with identical code. The Calibrator runs a fixed kernel — hash-table
// probes over a few MB, byte-wise number rendering and parsing, block
// copies — that shares no code or heap with websra, on as many threads
// as the 3-shard system under test keeps busy. Measured between
// iterations, its CPU time tracks the host's speed at that moment; the
// gated metrics are divided by it (see Normalize) and so read in
// microseconds of a host running at the reference speed.

#ifndef PERFBENCH_CALIBRATE_H_
#define PERFBENCH_CALIBRATE_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// Typical calibration CPU time (summed over all lanes) on the machine
/// the benchmark was tuned on: a 4-vCPU Intel Xeon virtual machine,
/// GCC 12, Release. Normalized metrics read in that machine's units.
constexpr double kReferenceCalibrationNs = 125e6;

class Calibrator {
 public:
  /// Allocates and touches every lane's buffers up front, so measuring
  /// allocates nothing and set-up's baseline memory already holds them.
  explicit Calibrator(int lanes);

  /// Runs the kernel once on every lane at the same time and returns
  /// the lanes' summed thread CPU time in ns. Returns -1 if a lane's
  /// checksum differs from the first run's (the kernel is
  /// deterministic, so that means a broken build).
  std::int64_t Measure();

 private:
  struct Lane {
    std::vector<std::uint64_t> table;
    std::vector<char> text;
    std::vector<char> src;
    std::vector<char> dst;
  };

  static std::uint64_t Kernel(Lane* lane);

  std::vector<Lane> lanes_;
  std::uint64_t checksum_ = 0;
};

/// Scales a CPU-time figure measured while calibration read
/// `calibration_ns` to the reference host's speed.
inline double Normalize(double value, double calibration_ns) {
  return calibration_ns > 0 ? value * kReferenceCalibrationNs / calibration_ns
                            : 0;
}

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATE_H_
