#include "serve/admission.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace qpe::serve {

namespace {

constexpr uint32_t kRetryNeverMs = 0xFFFFFFFFu;

uint32_t RetrySecondsToMs(double seconds) {
  if (seconds < 0) return kRetryNeverMs;
  const double ms = std::ceil(seconds * 1e3);
  if (ms >= static_cast<double>(kRetryNeverMs)) return kRetryNeverMs - 1;
  return std::max<uint32_t>(1, static_cast<uint32_t>(ms));
}

}  // namespace

AdmissionController::AdmissionController(const Config& config)
    : config_(config), overflow_("", config.default_tenant) {}

AdmissionController::TenantSlot* AdmissionController::SlotFor(
    const std::string& name) {
  auto it = tenants_.find(name);
  if (it != tenants_.end()) return it->second.get();
  const auto cfg_it = config_.tenants.find(name);
  if (cfg_it == config_.tenants.end()) {
    if (unknown_tracked_ >= kMaxTrackedTenants) return &overflow_;
    ++unknown_tracked_;
  }
  const TenantConfig& cfg = cfg_it != config_.tenants.end()
                                ? cfg_it->second
                                : config_.default_tenant;
  return tenants_.emplace(name, std::make_unique<TenantSlot>(name, cfg))
      .first->second.get();
}

AdmissionController::Result AdmissionController::Offer(QueuedRequest request,
                                                       double now) {
  std::lock_guard<std::mutex> lock(mu_);
  TenantSlot* slot = SlotFor(request.tenant);
  TenantState* tenant = &slot->state;
  if (draining_ || aborted_) {
    ++tenant->counters.shed_draining;
    return {Decision::kShedDraining, 0};
  }
  if (request.deadline <= now) {
    ++tenant->counters.shed_deadline;
    return {Decision::kShedDeadline, 0};
  }
  double retry_after_seconds = 0;
  if (!tenant->bucket.TrySpend(request.cost, now, &retry_after_seconds)) {
    ++tenant->counters.shed_quota;
    return {Decision::kShedQuota, RetrySecondsToMs(retry_after_seconds)};
  }
  std::deque<QueuedRequest>& queue = slot->queue;
  if (static_cast<int>(queue.size()) >= tenant->config.max_queued_requests) {
    ++tenant->counters.shed_queue_full;
    return {Decision::kShedQueueFull, config_.queue_full_retry_ms};
  }
  request.enqueue_time = now;
  request.virtual_start = std::max(virtual_time_, tenant->last_virtual_finish);
  const double weight = std::max(tenant->config.weight, 1e-9);
  request.virtual_finish =
      request.virtual_start + static_cast<double>(request.cost) / weight;
  tenant->last_virtual_finish = request.virtual_finish;
  ++tenant->counters.admitted;
  tenant->counters.plans += request.cost;
  queue.push_back(std::move(request));
  tenant->counters.queue_depth = static_cast<int>(queue.size());
  ++total_queued_;
  work_cv_.notify_one();
  return {Decision::kAdmitted, 0};
}

std::optional<QueuedRequest> AdmissionController::PopLocked() {
  if (total_queued_ == 0) return std::nullopt;
  // Serve the tenant whose head request finishes earliest in virtual time
  // (ties: tracked tenants in name order, then the overflow tenant).
  TenantSlot* best = nullptr;
  auto consider = [&best](TenantSlot* slot) {
    if (slot->queue.empty()) return;
    if (best == nullptr || slot->queue.front().virtual_finish <
                               best->queue.front().virtual_finish) {
      best = slot;
    }
  };
  for (auto& [name, slot] : tenants_) consider(slot.get());
  consider(&overflow_);
  QueuedRequest request = std::move(best->queue.front());
  best->queue.pop_front();
  best->state.counters.queue_depth = static_cast<int>(best->queue.size());
  --total_queued_;
  virtual_time_ = std::max(virtual_time_, request.virtual_start);
  return request;
}

std::optional<QueuedRequest> AdmissionController::PopBlocking() {
  std::unique_lock<std::mutex> lock(mu_);
  work_cv_.wait(lock, [this] {
    return total_queued_ > 0 || draining_ || aborted_;
  });
  return PopLocked();  // nullopt: draining/aborted and empty
}

std::optional<QueuedRequest> AdmissionController::TryPop() {
  std::lock_guard<std::mutex> lock(mu_);
  return PopLocked();
}

void AdmissionController::SetDraining() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
  work_cv_.notify_all();
}

bool AdmissionController::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

std::vector<QueuedRequest> AdmissionController::Abort() {
  std::lock_guard<std::mutex> lock(mu_);
  aborted_ = true;
  std::vector<QueuedRequest> remaining;
  auto take = [&remaining](TenantSlot* slot) {
    slot->state.counters.queue_depth = 0;
    for (QueuedRequest& request : slot->queue) {
      remaining.push_back(std::move(request));
    }
    slot->queue.clear();
  };
  for (auto& [name, slot] : tenants_) take(slot.get());
  take(&overflow_);
  total_queued_ = 0;
  work_cv_.notify_all();
  return remaining;
}

void AdmissionController::RecordCompleted(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  ++SlotFor(tenant)->state.counters.completed;
}

void AdmissionController::RecordDeadlineMissed(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  ++SlotFor(tenant)->state.counters.deadline_missed;
}

std::vector<std::pair<std::string, TenantCounters>>
AdmissionController::CountersSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, TenantCounters>> out;
  out.reserve(tenants_.size());
  for (const auto& [name, slot] : tenants_) {
    out.emplace_back(name, slot->state.counters);
  }
  return out;
}

TenantCounters AdmissionController::OverflowCounters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return overflow_.state.counters;
}

size_t AdmissionController::TotalQueued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_queued_;
}

}  // namespace qpe::serve
