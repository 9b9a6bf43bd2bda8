#ifndef QPE_SYSBENCH_COMMON_H_
#define QPE_SYSBENCH_COMMON_H_

// Shared plumbing of the system benchmark: command-line arguments, clocks,
// order statistics, correctness bookkeeping and the one-line JSON result the
// benchmark prints last.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace sysbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Directory (inside the checkout) for the daemon socket, span files and
  // per-layer tables.
  std::string work_dir = ".";
  // --daemon-child only: the socket the daemon listens on.
  std::string socket_path;
};

// Seed of one input stream derived from --seed, one stream per purpose, so
// adding a consumer to one stream never shifts the inputs of another.
inline uint64_t StreamSeed(uint64_t seed, uint64_t purpose) {
  return seed * 0x9E3779B97F4A7C15ULL + purpose * 0xD1B54A32D192ED03ULL + 1;
}

// Thread counts fixed per workload. Busy threads stay within nproc = 4:
// serving runs 2 client connections + the daemon's IO thread + 1 worker
// shard with a 1-thread pool (ParallelRun inline in the worker); training
// runs single-threaded.
inline constexpr int kConnections = 2;
inline constexpr int kDaemonWorkers = 1;
inline constexpr int kPoolThreads = 1;
// Set-up is repeated this many times per untraced run; setup_s is the median.
inline constexpr int kSetupRepeats = 3;

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Nearest-rank quantile of `values` (copied and sorted); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// The serving window, cut into kSlices equal slices; each request belongs
// to the slice in which it completed. The benchmark machine is a virtual
// machine whose host runs other guests, and their load only ever slows a
// slice down (by time the host takes away, or by sharing a core's caches).
// The serving figures therefore pool the requests of the fastest quarter of
// the slices: the least disturbed stretch of each run.
inline constexpr int kSlices = 20;
struct WindowFigures {
  double ops_per_s = 0;
  double p50_ms = 0;
  double p95_ms = 0;
};
WindowFigures FastestQuarterFigures(const std::vector<double>& done_s,
                                    const std::vector<double>& latency_ms,
                                    double window_s);

// Thread placement. Every thread that does benchmark work runs on one CPU.
// The benchmark machine is a virtual machine; a request that crosses CPUs
// wakes an idle virtual CPU at each hand-off, and the host's delay in
// running it varies with what its other guests do. On one CPU the hand-offs
// are plain context switches, and host interference slows the run only by
// the share of time it takes. No-op on machines with fewer than 4 CPUs.
inline constexpr int kBenchCpu = 3;
void PinThread(int tid, int cpu);  // tid 0: the calling thread

// Correctness ledger: a failed check prints its message to stderr and
// turns the run's `correct` flag false.
class Checks {
 public:
  void Expect(bool ok, const std::string& what);
  bool ok() const { return ok_; }

 private:
  bool ok_ = true;
  int failures_ = 0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

// Prints "# key: value" stamp lines (build type, SIMD level, nproc, thread
// counts) ahead of the result.
void PrintStamp(const std::string& key, const std::string& value);

// Prints the result as the last line of stdout.
void PrintResult(const Result& result);

// Serving and training entry points (one process per workload).
Result RunServeWorkload(const Args& args);
Result RunTrainWorkload(const Args& args);

// Daemon process body for the serving workloads; see serve_workload.cc.
int DaemonChildMain(const Args& args);

}  // namespace sysbench

#endif  // QPE_SYSBENCH_COMMON_H_
