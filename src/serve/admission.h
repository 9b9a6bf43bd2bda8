#ifndef QPE_SERVE_ADMISSION_H_
#define QPE_SERVE_ADMISSION_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "serve/tenant.h"

namespace qpe::serve {

// Admission control + weighted-fair scheduling between the daemon's IO
// thread (producer) and its worker shards (consumers).
//
// The overload contract: a request is either *admitted* — it joins its
// tenant's bounded FIFO queue and will be served (or cancelled at its
// deadline) — or *shed immediately* with a typed reason and a retry-after
// hint. Nothing ever waits in an unbounded line, so queueing delay, and
// with it p99 latency, is bounded by queue_bound x service_time instead of
// growing without limit as offered load passes capacity.
//
// Shed reasons, in check order:
//   kShedDraining   — the daemon is draining; clients should reconnect
//                     elsewhere (UNAVAILABLE on the wire).
//   kShedDeadline   — the request's deadline had already expired on
//                     arrival (DEADLINE_EXCEEDED).
//   kShedQuota      — the tenant's token bucket (cost = plan count) cannot
//                     cover the request now; retry_after_ms says when it
//                     could, or kRetryNever for a zero-quota tenant or a
//                     request larger than the burst (RESOURCE_EXHAUSTED).
//   kShedQueueFull  — the tenant already has max_queued_requests waiting
//                     (RESOURCE_EXHAUSTED).
//
// Scheduling is start-time weighted fair queueing over virtual time: an
// admitted request is tagged
//     start  = max(V, tenant.last_virtual_finish)
//     finish = start + cost / weight
// and PopBlocking serves the tenant whose head request has the smallest
// finish tag, advancing V to that request's start tag. Backlogged tenants
// therefore share worker capacity in proportion to their weights
// regardless of how bursty each one's arrivals are, and an idle tenant's
// unused share is redistributed (its next start tag snaps up to V).
//
// Tenant state is bounded: tenants named in Config::tenants are always
// tracked, and up to kMaxTrackedTenants other names each get their own
// state on first sight. Past that cap, every further unknown name shares
// one overflow tenant (default config: one token bucket, one bounded
// queue), so a client rotating names can neither grow the table without
// limit nor escape the default quota.
//
// Thread safety: every method is safe to call concurrently; one mutex
// guards tenants, queues, and virtual time.

// Unknown tenant names tracked individually before the overflow tenant
// takes over.
inline constexpr size_t kMaxTrackedTenants = 1024;

struct QueuedRequest {
  std::string tenant;
  uint32_t cost = 0;          // plans in the request (token-bucket cost)
  double enqueue_time = 0;    // monotonic seconds, set by Offer
  // Absolute monotonic deadline in seconds; infinity when the client set
  // no deadline. Checked by Offer (expired-on-arrival) and again by the
  // worker at dequeue (expired-while-queued -> cancelled, never encoded).
  double deadline = 0;
  double virtual_start = 0;
  double virtual_finish = 0;
  std::string payload;              // opaque wire payload (parsed by worker)
  std::shared_ptr<void> context;    // opaque connection handle
  // Wire version of the request frame (serve/wire_protocol.h); the worker
  // encodes the response in the requester's version.
  uint8_t wire_version = 1;
};

class AdmissionController {
 public:
  struct Config {
    TenantConfig default_tenant;                    // for unknown tenants
    std::map<std::string, TenantConfig> tenants;    // per-tenant overrides
    uint32_t queue_full_retry_ms = 20;              // hint when queue-bound shed
  };

  explicit AdmissionController(const Config& config);

  enum class Decision {
    kAdmitted,
    kShedQuota,
    kShedQueueFull,
    kShedDeadline,
    kShedDraining,
  };
  struct Result {
    Decision decision = Decision::kAdmitted;
    uint32_t retry_after_ms = 0;  // kRetryNever-style sentinel: 0xFFFFFFFF
  };

  // Admits `request` into its tenant's queue or sheds it. `now` is
  // monotonic seconds (the daemon's clock; tests drive it directly).
  // Tenants are auto-registered on first sight with the default config
  // unless an override is present (within kMaxTrackedTenants; see above).
  Result Offer(QueuedRequest request, double now);

  // Next request under the WFQ discipline. Blocks until work arrives;
  // returns nullopt once the controller is draining and every queue is
  // empty (worker shutdown), or after Abort().
  std::optional<QueuedRequest> PopBlocking();
  std::optional<QueuedRequest> TryPop();

  // Drain mode: every subsequent Offer is shed with kShedDraining; queued
  // work keeps flowing to PopBlocking until the queues empty out.
  void SetDraining();
  bool draining() const;

  // Wakes all blocked consumers immediately (forced shutdown). Queued
  // requests are returned so the caller can fail them with typed errors.
  std::vector<QueuedRequest> Abort();

  // Worker-side counter hooks (the controller cannot observe completion).
  void RecordCompleted(const std::string& tenant);
  void RecordDeadlineMissed(const std::string& tenant);

  // Consistent snapshot of every tracked tenant's counters (one lock, no
  // tearing). The overflow tenant is reported by OverflowCounters.
  std::vector<std::pair<std::string, TenantCounters>> CountersSnapshot() const;
  // Counters of the overflow tenant shared by names past the cap.
  TenantCounters OverflowCounters() const;

  size_t TotalQueued() const;

 private:
  // A tenant's admission state and its bounded FIFO.
  struct TenantSlot {
    TenantSlot(std::string name, const TenantConfig& cfg)
        : state(std::move(name), cfg) {}
    TenantState state;
    std::deque<QueuedRequest> queue;
  };

  TenantSlot* SlotFor(const std::string& name);  // requires mu_ held
  std::optional<QueuedRequest> PopLocked();      // requires mu_ held

  Config config_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::map<std::string, std::unique_ptr<TenantSlot>> tenants_;
  size_t unknown_tracked_ = 0;  // tracked names not in config_.tenants
  TenantSlot overflow_;
  double virtual_time_ = 0;
  size_t total_queued_ = 0;
  bool draining_ = false;
  bool aborted_ = false;
};

}  // namespace qpe::serve

#endif  // QPE_SERVE_ADMISSION_H_
