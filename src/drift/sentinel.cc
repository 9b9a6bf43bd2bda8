#include "drift/sentinel.h"

#include <utility>

#include "plan/fingerprint.h"
#include "plan/linearize.h"
#include "plan/serialize.h"

namespace qpe::drift {

DriftSentinel::DriftSentinel(DriftBaseline baseline,
                             const DriftSentinelConfig& config)
    : config_(config),
      detector_(std::move(baseline), config.detector),
      monitor_(config.monitor) {
  if (config_.slice_capacity == 0) config_.slice_capacity = 1;
  state_atomic_.store(static_cast<uint8_t>(monitor_.state()),
                      std::memory_order_relaxed);
}

void DriftSentinel::Observe(const plan::PlanNode& plan, const float* embedding,
                            size_t dim) {
  // Linearize + fingerprint outside the lock: it is the expensive part of
  // an observation and needs no shared state.
  const std::vector<plan::OperatorType> tokens =
      plan::LinearizeDfsBracket(plan);
  Observe(plan, tokens, plan::FingerprintTokens(tokens), embedding, dim);
}

void DriftSentinel::Observe(const plan::PlanNode& plan,
                            const std::vector<plan::OperatorType>& tokens,
                            uint64_t fingerprint, const float* embedding,
                            size_t dim) {
  std::lock_guard<std::mutex> lock(mu_);
  ++observed_;
  const bool novel = !detector_.baseline().bloom.MightContain(fingerprint);
  std::optional<DriftWindowReport> report =
      detector_.ObserveTokens(tokens, fingerprint, embedding, dim);
  if (report.has_value()) {
    monitor_.OnWindow(*report);
    last_report_ = std::move(*report);
    has_report_ = true;
  }
  // Slice collection: novel plans always (they are what adaptation must
  // learn), everything once the monitor is suspicious (a knob shift keeps
  // fingerprints known but changes the mix — the slice must reflect it).
  if ((novel || monitor_.state() != DriftState::kHealthy) &&
      slice_keys_.insert(fingerprint).second) {
    slice_.emplace_back(fingerprint, plan::SerializePlanNode(plan));
    while (slice_.size() > config_.slice_capacity) {
      slice_keys_.erase(slice_.front().first);
      slice_.pop_front();
    }
  }
  PublishLocked();
}

void DriftSentinel::PublishLocked() {
  state_atomic_.store(static_cast<uint8_t>(monitor_.state()),
                      std::memory_order_relaxed);
  score_atomic_.store(static_cast<float>(monitor_.last_score()),
                      std::memory_order_relaxed);
}

DriftStatusSnapshot DriftSentinel::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  DriftStatusSnapshot snapshot;
  snapshot.state = monitor_.state();
  snapshot.last_score = monitor_.last_score();
  snapshot.windows = detector_.windows_closed();
  snapshot.alarms = monitor_.alarms();
  snapshot.observed_plans = observed_;
  snapshot.slice_size = slice_.size();
  snapshot.has_report = has_report_;
  if (has_report_) snapshot.last_report = last_report_;
  return snapshot;
}

std::vector<std::string> DriftSentinel::SliceSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(slice_.size());
  for (const auto& [key, text] : slice_) out.push_back(text);
  return out;
}

bool DriftSentinel::BeginAdaptation() {
  std::lock_guard<std::mutex> lock(mu_);
  const bool ok = monitor_.BeginAdaptation();
  PublishLocked();
  return ok;
}

void DriftSentinel::CompleteAdaptation(DriftBaseline new_baseline) {
  std::lock_guard<std::mutex> lock(mu_);
  detector_.Rebaseline(std::move(new_baseline));
  monitor_.CompleteAdaptation();
  slice_.clear();
  slice_keys_.clear();
  has_report_ = false;
  last_report_ = DriftWindowReport{};
  PublishLocked();
}

void DriftSentinel::AbortAdaptation() {
  std::lock_guard<std::mutex> lock(mu_);
  monitor_.AbortAdaptation();
  PublishLocked();
}

void DriftSentinel::ForceAdapting() {
  std::lock_guard<std::mutex> lock(mu_);
  monitor_.ForceAdapting();
  PublishLocked();
}

}  // namespace qpe::drift
