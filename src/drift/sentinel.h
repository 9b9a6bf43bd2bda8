#ifndef QPE_DRIFT_SENTINEL_H_
#define QPE_DRIFT_SENTINEL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "drift/baseline.h"
#include "drift/detector.h"
#include "drift/monitor.h"
#include "plan/plan_node.h"

namespace qpe::drift {

struct DriftSentinelConfig {
  DriftDetectorConfig detector;
  DriftMonitorConfig monitor;
  // Distinct serialized plans retained as the adaptation corpus ("the
  // drifted slice"): novel plans are always collected, and everything is
  // collected while the state is off-HEALTHY. FIFO-evicted beyond capacity.
  size_t slice_capacity = 256;
};

// Point-in-time copy of the sentinel's full state for STATS.
struct DriftStatusSnapshot {
  bool enabled = true;
  DriftState state = DriftState::kHealthy;
  double last_score = 0;
  uint64_t windows = 0;
  uint64_t alarms = 0;
  uint64_t observed_plans = 0;
  size_t slice_size = 0;
  bool has_report = false;
  DriftWindowReport last_report;  // valid iff has_report
};

// Thread-safe facade over DriftDetector + DriftMonitor, the object the
// serving daemon owns. Worker threads call Observe concurrently for every
// served plan; the response path reads stale()/state()/last_score() off
// atomics so the hot path never takes the sentinel mutex after Observe.
class DriftSentinel {
 public:
  DriftSentinel(DriftBaseline baseline, const DriftSentinelConfig& config = {});

  // Folds one served (plan, embedding) observation into the stream.
  void Observe(const plan::PlanNode& plan, const float* embedding, size_t dim);
  // The same, given the plan's LinearizeDfsBracket tokens and their
  // FingerprintTokens hash, which the caller has already computed.
  void Observe(const plan::PlanNode& plan,
               const std::vector<plan::OperatorType>& tokens,
               uint64_t fingerprint, const float* embedding, size_t dim);

  // Lock-free reads for the per-response drift trailer.
  bool stale() const {
    const auto s = static_cast<DriftState>(
        state_atomic_.load(std::memory_order_relaxed));
    return s == DriftState::kDrifted || s == DriftState::kAdapting;
  }
  DriftState state() const {
    return static_cast<DriftState>(
        state_atomic_.load(std::memory_order_relaxed));
  }
  float last_score() const {
    return score_atomic_.load(std::memory_order_relaxed);
  }

  DriftStatusSnapshot Snapshot() const;
  // The drifted slice (serialized plans), oldest first.
  std::vector<std::string> SliceSnapshot() const;

  // State-machine edges driven by the daemon (see DriftMonitor).
  bool BeginAdaptation();
  // Commits an adaptation: swaps the detector onto `new_baseline`, clears
  // the slice, and returns to HEALTHY.
  void CompleteAdaptation(DriftBaseline new_baseline);
  void AbortAdaptation();
  void ForceAdapting();

  const DriftBaseline& baseline() const { return detector_.baseline(); }
  const DriftSentinelConfig& config() const { return config_; }

 private:
  void PublishLocked();  // refresh the atomics; caller holds mu_

  DriftSentinelConfig config_;
  mutable std::mutex mu_;
  DriftDetector detector_;
  DriftMonitor monitor_;
  uint64_t observed_ = 0;
  bool has_report_ = false;
  DriftWindowReport last_report_;
  // Slice ring: (fingerprint, serialized plan), deduplicated by fingerprint.
  std::deque<std::pair<uint64_t, std::string>> slice_;
  std::unordered_set<uint64_t> slice_keys_;

  std::atomic<uint8_t> state_atomic_{0};
  std::atomic<float> score_atomic_{0.0f};
};

}  // namespace qpe::drift

#endif  // QPE_DRIFT_SENTINEL_H_
