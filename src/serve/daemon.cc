#include "serve/daemon.h"

#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "plan/fingerprint.h"
#include "plan/linearize.h"
#include "plan/serialize.h"
#include "serve/warm_state.h"
#include "util/fault_injection.h"

namespace qpe::serve {

namespace {

constexpr double kInfiniteDeadline = std::numeric_limits<double>::infinity();
constexpr int kPollTimeoutMs = 50;

// Writes `s` as a quoted JSON string. Tenant names are chosen by clients,
// so quotes, backslashes and control bytes must be escaped before they
// reach the STATS document.
void WriteJsonString(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      os << '\\' << ch;
    } else if (c == '\n') {
      os << "\\n";
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      os << buf;
    } else {
      os << ch;
    }
  }
  os << '"';
}

}  // namespace

// One client connection. The IO thread owns the receive buffer and the
// lifetime (it alone erases connections from its map); workers hold a
// shared_ptr and write responses under write_mu, so a response to a
// connection that died mid-encode lands on a closed flag, not a dangling
// fd.
struct ServingDaemon::Connection {
  util::UniqueFd fd;
  std::mutex write_mu;
  std::atomic<bool> closed{false};
  std::string in_buf;  // IO thread only
  // Wire version of the client's most recent frame; every response goes
  // out stamped with it, so v1 clients keep getting v1 frames from a v2
  // daemon. Written by the IO thread, read by workers.
  std::atomic<uint8_t> wire_version{1};
};

ServingDaemon::ServingDaemon(const encoder::PlanSequenceEncoder* encoder,
                             const ServingDaemonConfig& config)
    : encoder_(encoder),
      config_(config),
      service_(std::make_unique<EmbeddingService>(encoder, config.service)),
      admission_(std::make_unique<AdmissionController>(config.admission)) {}

ServingDaemon::~ServingDaemon() {
  if (started_.load() && !stopped_.load()) Stop();
}

double ServingDaemon::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_time_)
      .count();
}

util::Status ServingDaemon::Start() {
  if (started_.exchange(true)) {
    return util::FailedPreconditionError("daemon already started");
  }
  start_time_ = std::chrono::steady_clock::now();
  if (!drain_pipe_.valid()) {
    return util::IoError("cannot create the drain self-pipe");
  }
  util::StatusOr<util::UniqueFd> listener =
      util::ListenUnix(config_.socket_path, config_.listen_backlog);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(*listener);
  if (util::Status s = util::SetNonBlocking(listener_.get()); !s.ok()) {
    return s;
  }
  if (config_.install_signal_handlers) {
    if (util::Status s = util::InstallShutdownSignalHandler(&drain_pipe_);
        !s.ok()) {
      return s;
    }
  }

  // Drift sentinel first: if a completed adaptation round's weights are on
  // disk they become the serving model (with their own fingerprint), and
  // the warm restore below must validate against *that* fingerprint.
  if (config_.enable_drift) {
    if (util::Status s = InitDrift(); !s.ok()) return s;
  }

  // Warm restore: best effort — a missing, corrupt, or wrong-model
  // snapshot starts cold, it never blocks startup.
  if (!config_.warm_state_path.empty() && service_->cache() != nullptr &&
      WarmStateExists(config_.warm_state_path)) {
    WarmState warm;
    util::Status s = LoadWarmState(config_.warm_state_path,
                                   config_.model_fingerprint, &warm);
    if (s.ok()) {
      service_->cache()->Restore(std::move(warm.entries));
      warm_restored_entries_.store(service_->cache()->GetStats().entries);
      std::fprintf(stderr, "qpe_served: warm cache restored: %zu entries\n",
                   static_cast<size_t>(warm_restored_entries_.load()));
    } else {
      std::fprintf(stderr, "qpe_served: warm restore skipped: %s\n",
                   s.ToString().c_str());
    }
  }

  workers_.reserve(static_cast<size_t>(std::max(config_.workers, 1)));
  workers_running_.store(std::max(config_.workers, 1));
  for (int i = 0; i < std::max(config_.workers, 1); ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  io_thread_ = std::thread([this] { IoLoop(); });

  // Restart re-entry: a persisted manifest proves the previous process was
  // SIGKILLed mid-ADAPTING. Re-enter the state immediately (responses flag
  // stale from the first request) and resume the fine-tune from its last
  // checkpoint while serving continues.
  if (sentinel_ != nullptr && !config_.adaptation.dir.empty() &&
      drift::AdaptationPending(config_.adaptation.dir)) {
    std::fprintf(stderr, "qpe_served: resuming interrupted adaptation\n");
    sentinel_->ForceAdapting();
    adaptations_resumed_.fetch_add(1, std::memory_order_relaxed);
    StartAdaptationThread(/*resumed=*/true);
  }
  return util::OkStatus();
}

util::Status ServingDaemon::InitDrift() {
  const auto* base =
      dynamic_cast<const encoder::TransformerPlanEncoder*>(encoder_);
  if (base == nullptr) {
    return util::InvalidArgumentError(
        "drift sentinel requires a TransformerPlanEncoder");
  }
  if (config_.drift_corpus.empty()) {
    return util::InvalidArgumentError(
        "drift sentinel needs a baseline corpus (drift_corpus is empty)");
  }
  corpus_plans_.reserve(config_.drift_corpus.size());
  for (const std::string& text : config_.drift_corpus) {
    util::StatusOr<std::unique_ptr<plan::PlanNode>> parsed =
        plan::ParsePlanNodeChecked(text);
    if (!parsed.ok()) return parsed.status();
    corpus_plans_.push_back(std::move(*parsed));
  }

  // A completed round the previous process never got to swap in (or
  // swapped in and then exited): its weights are the model to serve now.
  const std::string& dir = config_.adaptation.dir;
  if (!dir.empty() && drift::AdaptedWeightsPresent(dir)) {
    util::StatusOr<std::unique_ptr<encoder::TransformerPlanEncoder>> adapted =
        drift::LoadAdaptedEncoder(dir, base->config());
    if (adapted.ok()) {
      adapted_encoder_ = std::move(*adapted);
      encoder_ = adapted_encoder_.get();
      service_->SwapEncoder(encoder_);  // pre-thread: nothing concurrent
      config_.model_fingerprint = ModelFingerprint(*adapted_encoder_);
      std::fprintf(stderr,
                   "qpe_served: adapted model restored: fingerprint %" PRIu64
                   "\n",
                   config_.model_fingerprint);
    } else {
      // Corrupt adapted weights degrade to the base model, never to a
      // failed start.
      std::fprintf(stderr, "qpe_served: adapted model load skipped: %s\n",
                   adapted.status().ToString().c_str());
    }
  }

  std::vector<const plan::PlanNode*> ptrs;
  ptrs.reserve(corpus_plans_.size());
  for (const auto& p : corpus_plans_) ptrs.push_back(p.get());
  sentinel_ = std::make_unique<drift::DriftSentinel>(
      drift::BuildDriftBaseline(*encoder_, ptrs, config_.drift_baseline,
                                config_.service.batch_size),
      config_.drift_sentinel);
  return util::OkStatus();
}

void ServingDaemon::TriggerDrain() { drain_pipe_.Notify(); }

void ServingDaemon::Join() {
  std::lock_guard<std::mutex> lock(join_mu_);
  if (io_thread_.joinable()) io_thread_.join();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  if (adapt_thread_.joinable()) adapt_thread_.join();
  stopped_.store(true);
}

void ServingDaemon::Stop() {
  TriggerDrain();
  Join();
}

void ServingDaemon::SendFrame(const ConnPtr& conn, FrameType type,
                              std::string_view payload) {
  if (conn->closed.load(std::memory_order_acquire)) return;
  const std::string frame = EncodeFrame(
      type, payload, conn->wire_version.load(std::memory_order_relaxed));
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (conn->closed.load(std::memory_order_acquire)) return;
  if (util::Status s = util::WriteFull(conn->fd.get(), frame.data(),
                                       frame.size());
      !s.ok()) {
    // Slow consumer (SO_SNDTIMEO), hangup, or injected fault: this
    // connection is done, the daemon is not.
    io_errors_.fetch_add(1, std::memory_order_relaxed);
    conn->closed.store(true, std::memory_order_release);
  }
}

void ServingDaemon::SendError(const ConnPtr& conn, WireError code,
                              uint32_t retry_after_ms, std::string message) {
  ErrorResponse error;
  error.code = code;
  error.retry_after_ms = retry_after_ms;
  error.message = std::move(message);
  SendFrame(conn, FrameType::kErrorResponse,
            EncodeErrorResponsePayload(error));
}

void ServingDaemon::HandleEncodeRequest(const ConnPtr& conn,
                                        std::string payload,
                                        uint8_t wire_version) {
  // Admission runs on the head fields only — tenant, deadline, cost — so
  // shedding a request under overload never pays for plan parsing.
  util::StatusOr<EncodeRequestHead> head =
      PeekEncodeRequestHead(payload, config_.max_plans_per_request);
  if (!head.ok()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    SendError(conn, WireError::kInvalidArgument, 0, head.status().ToString());
    return;
  }
  const double now = Now();
  QueuedRequest request;
  request.tenant = head->tenant;
  request.cost = head->plan_count;
  request.deadline = head->deadline_ms == kNoDeadline
                         ? kInfiniteDeadline
                         : now + head->deadline_ms * 1e-3;
  request.payload = std::move(payload);
  request.context = conn;
  request.wire_version = wire_version;
  const AdmissionController::Result result =
      admission_->Offer(std::move(request), now);
  switch (result.decision) {
    case AdmissionController::Decision::kAdmitted:
      return;  // a worker will respond
    case AdmissionController::Decision::kShedDraining:
      SendError(conn, WireError::kUnavailable, result.retry_after_ms,
                "daemon is draining");
      return;
    case AdmissionController::Decision::kShedDeadline:
      SendError(conn, WireError::kDeadlineExceeded, 0,
                "deadline expired before admission");
      return;
    case AdmissionController::Decision::kShedQuota:
      SendError(conn, WireError::kResourceExhausted, result.retry_after_ms,
                result.retry_after_ms == kRetryNever
                    ? "tenant quota can never cover this request"
                    : "tenant quota exhausted");
      return;
    case AdmissionController::Decision::kShedQueueFull:
      SendError(conn, WireError::kResourceExhausted, result.retry_after_ms,
                "tenant queue is full");
      return;
  }
}

void ServingDaemon::HandleFrame(const ConnPtr& conn, Frame frame) {
  // Version negotiation: a connection speaks whatever version its latest
  // frame used, and every response echoes it.
  conn->wire_version.store(frame.version, std::memory_order_relaxed);
  switch (frame.type) {
    case FrameType::kEncodeRequest:
      HandleEncodeRequest(conn, std::move(frame.payload), frame.version);
      return;
    case FrameType::kStatsRequest:
      SendFrame(conn, FrameType::kStatsResponse, StatsJson());
      return;
    case FrameType::kPingRequest:
      SendFrame(conn, FrameType::kPongResponse, "");
      return;
    default:
      // A client sending response-typed frames is confused; treat as a
      // protocol error and drop the connection.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      SendError(conn, WireError::kInvalidArgument, 0,
                "unexpected frame type on the request channel");
      conn->closed.store(true, std::memory_order_release);
      return;
  }
}

void ServingDaemon::ProcessWork(QueuedRequest work) {
  const ConnPtr conn = std::static_pointer_cast<Connection>(work.context);
  // Deadline re-check at dequeue: queued work whose budget lapsed is
  // cancelled without touching the encoder — that is what keeps a backlog
  // from wasting capacity on responses nobody is waiting for anymore.
  if (Now() > work.deadline) {
    admission_->RecordDeadlineMissed(work.tenant);
    SendError(conn, WireError::kDeadlineExceeded, 0,
              "deadline expired while queued");
    return;
  }
  util::StatusOr<EncodeRequest> request = ParseEncodeRequestPayload(
      work.payload, config_.max_plans_per_request);
  if (!request.ok()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    SendError(conn, WireError::kInvalidArgument, 0,
              request.status().ToString());
    admission_->RecordCompleted(work.tenant);
    return;
  }
  std::vector<std::unique_ptr<plan::PlanNode>> plans;
  plans.reserve(request->plans.size());
  for (size_t i = 0; i < request->plans.size(); ++i) {
    util::StatusOr<std::unique_ptr<plan::PlanNode>> parsed =
        plan::ParsePlanNodeChecked(request->plans[i]);
    if (!parsed.ok()) {
      SendError(conn, WireError::kInvalidArgument, 0,
                "plan " + std::to_string(i) + ": " +
                    parsed.status().ToString());
      admission_->RecordCompleted(work.tenant);
      return;
    }
    plans.push_back(std::move(*parsed));
  }
  // One linearization per plan yields both the cache key and the drift
  // sentinel's tokens.
  std::vector<const plan::PlanNode*> ptrs;
  std::vector<std::vector<plan::OperatorType>> tokens(plans.size());
  std::vector<uint64_t> fingerprints(plans.size());
  ptrs.reserve(plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    ptrs.push_back(plans[i].get());
    plan::LinearizeDfsBracketInto(*plans[i], &tokens[i]);
    fingerprints[i] = plan::FingerprintTokens(tokens[i]);
  }

  EncodeResponse response;
  {
    // Shared model lock: the encode, the dim read, and the sentinel's
    // observation of the produced embeddings all see one consistent model —
    // an adaptation swap (exclusive side) can never land in between.
    std::shared_lock<std::shared_mutex> model_lock(model_mu_);
    const std::vector<nn::Tensor> embeddings =
        service_->EncodeAll(ptrs, fingerprints);
    response.dim = static_cast<uint32_t>(encoder_->output_dim());
    response.embeddings.reserve(embeddings.size());
    for (const nn::Tensor& e : embeddings) {
      response.embeddings.push_back(e.value());
    }
    if (sentinel_ != nullptr) {
      const auto observe_start = std::chrono::steady_clock::now();
      for (size_t i = 0; i < plans.size(); ++i) {
        sentinel_->Observe(*plans[i], tokens[i], fingerprints[i],
                           response.embeddings[i].data(), response.dim);
      }
      drift_observe_ns_.fetch_add(
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - observe_start)
                  .count()),
          std::memory_order_relaxed);
      drift_observed_.fetch_add(plans.size(), std::memory_order_relaxed);
    }
  }
  if (sentinel_ != nullptr) {
    response.stale = sentinel_->stale();
    response.drift_state = static_cast<uint8_t>(sentinel_->state());
    response.drift_score = sentinel_->last_score();
  }
  SendFrame(conn, FrameType::kEncodeResponse,
            EncodeEncodeResponsePayload(response, work.wire_version));
  // The encode ran to completion whether or not the client stuck around to
  // read the response, so `completed` counts it either way — keeping the
  // invariant admitted == completed + deadline_missed for every tenant.
  admission_->RecordCompleted(work.tenant);
  completed_since_snapshot_.fetch_add(1, std::memory_order_relaxed);
}

void ServingDaemon::WorkerLoop() {
  while (true) {
    std::optional<QueuedRequest> work = admission_->PopBlocking();
    if (!work.has_value()) break;  // draining/aborted and queues empty
    ProcessWork(std::move(*work));
  }
  workers_running_.fetch_sub(1, std::memory_order_acq_rel);
}

void ServingDaemon::MaybeSnapshot(bool force) {
  if (config_.warm_state_path.empty() || service_->cache() == nullptr) return;
  if (!force) {
    if (config_.snapshot_every_requests == 0) return;
    if (completed_since_snapshot_.load(std::memory_order_relaxed) <
        config_.snapshot_every_requests) {
      return;
    }
  }
  completed_since_snapshot_.store(0, std::memory_order_relaxed);
  WarmState warm;
  {
    // Shared model lock: fingerprint and cache contents are captured as a
    // consistent pair. Without it an adaptation swap could land between the
    // two reads, stamping the *old* fingerprint onto the *new* model's
    // cache — a snapshot a restarted daemon would happily restore against
    // the wrong weights.
    std::shared_lock<std::shared_mutex> model_lock(model_mu_);
    warm.model_fingerprint = config_.model_fingerprint;
    warm.dim = static_cast<uint32_t>(encoder_->output_dim());
    warm.entries = service_->cache()->Snapshot();
  }
  if (warm.entries.empty()) return;  // nothing worth persisting
  if (util::Status s = SaveWarmState(config_.warm_state_path, warm); s.ok()) {
    snapshots_written_.fetch_add(1, std::memory_order_relaxed);
  } else {
    // A failed snapshot (disk full, injected fault) degrades warm restart,
    // not serving; the crash-safe writer left no torn file behind.
    io_errors_.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr, "qpe_served: warm snapshot failed: %s\n",
                 s.ToString().c_str());
  }
}

void ServingDaemon::MaybeStartAdaptation() {
  // IO-thread only (like everything that touches adapt_thread_ after
  // Start), so the check-then-spawn below has no race.
  if (sentinel_ == nullptr || config_.adaptation.dir.empty()) return;
  if (adapt_running_.load(std::memory_order_acquire)) return;
  if (sentinel_->state() != drift::DriftState::kDrifted) return;
  StartAdaptationThread(/*resumed=*/false);
}

void ServingDaemon::StartAdaptationThread(bool resumed) {
  adapt_running_.store(true, std::memory_order_release);
  if (adapt_thread_.joinable()) adapt_thread_.join();  // reap the last round
  adapt_thread_ = std::thread([this, resumed] { AdaptationRound(resumed); });
}

void ServingDaemon::AdaptationRound(bool resumed) {
  // Fresh rounds take the DRIFTED -> ADAPTING edge; a resumed round was
  // forced into ADAPTING by Start() already.
  if (!resumed && !sentinel_->BeginAdaptation()) {
    adapt_running_.store(false, std::memory_order_release);
    return;
  }
  std::fprintf(stderr, "qpe_served: adaptation started%s\n",
               resumed ? " (resumed from checkpoint)" : "");
  const std::vector<std::string> slice = sentinel_->SliceSnapshot();
  drift::AdaptationConfig adapt_config = config_.adaptation;
  adapt_config.abort = &adapt_abort_;
  const encoder::TransformerPlanEncoder* base = nullptr;
  {
    std::shared_lock<std::shared_mutex> model_lock(model_mu_);
    base = dynamic_cast<const encoder::TransformerPlanEncoder*>(encoder_);
  }
  // RunAdaptation only *reads* the base encoder (it trains a clone), so
  // serving continues on it concurrently without the model lock.
  util::StatusOr<drift::AdaptationResult> result =
      drift::RunAdaptation(*base, slice, adapt_config);
  if (!result.ok()) {
    std::fprintf(stderr, "qpe_served: adaptation failed: %s\n",
                 result.status().ToString().c_str());
    sentinel_->AbortAdaptation();  // back to DRIFTED; retry-eligible
    adapt_running_.store(false, std::memory_order_release);
    return;
  }
  if (result->aborted) {
    // Drain interrupted the round: manifest + checkpoint persist, the next
    // start resumes. The state stays ADAPTING until then.
    std::fprintf(stderr,
                 "qpe_served: adaptation interrupted by drain; will resume\n");
    adapt_running_.store(false, std::memory_order_release);
    return;
  }
  InstallAdaptedEncoder(std::move(result->encoder),
                        std::move(result->slice_plans));
  adaptations_completed_.fetch_add(1, std::memory_order_relaxed);
  adapt_running_.store(false, std::memory_order_release);
}

void ServingDaemon::InstallAdaptedEncoder(
    std::unique_ptr<encoder::TransformerPlanEncoder> fresh,
    std::vector<std::unique_ptr<plan::PlanNode>> slice_plans) {
  // The drifted slice joins the baseline corpus: after the swap the adapted
  // distribution *is* normal, and the rebuilt baseline must say so.
  for (auto& p : slice_plans) corpus_plans_.push_back(std::move(p));
  std::vector<const plan::PlanNode*> ptrs;
  ptrs.reserve(corpus_plans_.size());
  for (const auto& p : corpus_plans_) ptrs.push_back(p.get());
  drift::DriftBaseline baseline =
      drift::BuildDriftBaseline(*fresh, ptrs, config_.drift_baseline,
                                config_.service.batch_size);
  const uint64_t fingerprint = ModelFingerprint(*fresh);
  std::unique_ptr<encoder::TransformerPlanEncoder> retired;
  {
    // The swap: encoder pointer, embedding cache (cleared transactionally
    // by SwapEncoder), and fingerprint change as one unit under the
    // exclusive lock. Encodes and snapshots see the old triple or the new
    // one, never a mix.
    std::unique_lock<std::shared_mutex> model_lock(model_mu_);
    retired = std::move(adapted_encoder_);
    adapted_encoder_ = std::move(fresh);
    encoder_ = adapted_encoder_.get();
    service_->SwapEncoder(encoder_);
    config_.model_fingerprint = fingerprint;
  }
  sentinel_->CompleteAdaptation(std::move(baseline));
  std::fprintf(stderr,
               "qpe_served: adaptation complete: fingerprint %" PRIu64
               " now serving\n",
               fingerprint);
}

void ServingDaemon::IoLoop() {
  std::map<int, ConnPtr> conns;
  bool listener_open = true;
  double drain_start = 0;
  bool drain_aborted = false;

  const auto close_conn = [&](int fd) {
    auto it = conns.find(fd);
    if (it == conns.end()) return;
    it->second->closed.store(true, std::memory_order_release);
    conns.erase(it);
    connections_open_.store(conns.size(), std::memory_order_relaxed);
  };

  while (true) {
    std::vector<pollfd> fds;
    fds.push_back({drain_pipe_.read_fd(), POLLIN, 0});
    if (listener_open) fds.push_back({listener_.get(), POLLIN, 0});
    for (const auto& [fd, conn] : conns) fds.push_back({fd, POLLIN, 0});
    const int ready = ::poll(fds.data(), fds.size(), kPollTimeoutMs);
    if (ready < 0 && errno != EINTR) break;  // poll itself failed: bail out

    // 1. Shutdown signal (SIGTERM/SIGINT via self-pipe, or TriggerDrain).
    if (drain_pipe_.Drain() && !draining_.load()) {
      // An in-flight adaptation stops at its next batch boundary WITHOUT
      // checkpointing (SIGKILL-equivalent); its manifest survives, so the
      // next start resumes the round.
      adapt_abort_.store(true, std::memory_order_release);
      draining_.store(true, std::memory_order_release);
      admission_->SetDraining();  // new work -> UNAVAILABLE; queues flush
      listener_.Reset();          // stop accepting
      listener_open = false;
      drain_start = Now();
    }

    // 2. New connections.
    if (listener_open) {
      while (true) {
        if (util::Status s = util::InjectFault("daemon.accept"); !s.ok()) {
          io_errors_.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        const int fd = ::accept(listener_.get(), nullptr, nullptr);
        if (fd < 0) {
          if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
            io_errors_.fetch_add(1, std::memory_order_relaxed);
          }
          break;
        }
        // Reads are multiplexed with MSG_DONTWAIT; writes stay blocking
        // with a send timeout so a stalled consumer cannot pin a worker.
        if (config_.write_timeout_seconds > 0) {
          timeval tv{};
          tv.tv_sec = static_cast<time_t>(config_.write_timeout_seconds);
          tv.tv_usec = static_cast<suseconds_t>(
              (config_.write_timeout_seconds - static_cast<double>(tv.tv_sec)) *
              1e6);
          ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
        }
        auto conn = std::make_shared<Connection>();
        conn->fd.Reset(fd);
        conns.emplace(fd, std::move(conn));
        connections_accepted_.fetch_add(1, std::memory_order_relaxed);
        connections_open_.store(conns.size(), std::memory_order_relaxed);
      }
    }

    // 3. Connection reads: accumulate bytes, extract complete frames.
    std::vector<int> dead;
    for (auto& [fd, conn] : conns) {
      if (conn->closed.load(std::memory_order_acquire)) {
        dead.push_back(fd);
        continue;
      }
      char buf[4096];
      bool conn_dead = false;
      while (true) {
        if (util::Status s = util::InjectFault("daemon.conn.read"); !s.ok()) {
          io_errors_.fetch_add(1, std::memory_order_relaxed);
          conn_dead = true;
          break;
        }
        const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
        if (n > 0) {
          conn->in_buf.append(buf, static_cast<size_t>(n));
          if (static_cast<ssize_t>(sizeof(buf)) == n) continue;
          break;
        }
        if (n == 0) {  // peer hung up (possibly mid-frame: dropped cleanly)
          conn_dead = true;
        } else if (errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR) {
          io_errors_.fetch_add(1, std::memory_order_relaxed);
          conn_dead = true;
        }
        break;
      }
      while (!conn_dead) {
        Frame frame;
        size_t consumed = 0;
        util::Status error;
        const FrameParse parse =
            NextFrame(conn->in_buf, config_.max_payload_bytes, &frame,
                      &consumed, &error);
        if (parse == FrameParse::kNeedMore) break;
        if (parse == FrameParse::kError) {
          // Garbage on the wire: answer with a typed error (best effort —
          // the stream is unframed now) and drop the connection.
          protocol_errors_.fetch_add(1, std::memory_order_relaxed);
          SendError(conn, WireError::kInvalidArgument, 0, error.ToString());
          conn_dead = true;
          break;
        }
        conn->in_buf.erase(0, consumed);
        HandleFrame(conn, std::move(frame));
        if (conn->closed.load(std::memory_order_acquire)) {
          conn_dead = true;
          break;
        }
      }
      if (conn_dead) dead.push_back(fd);
    }
    for (const int fd : dead) close_conn(fd);

    // 4. Periodic warm snapshot + drift-triggered adaptation.
    if (!draining_.load()) {
      MaybeSnapshot(/*force=*/false);
      MaybeStartAdaptation();
    }

    // 5. Drain state machine.
    if (draining_.load()) {
      const bool workers_done = workers_running_.load() == 0;
      const bool overdue = Now() - drain_start > config_.drain_deadline_seconds;
      if (overdue && !drain_aborted) {
        // Admitted work we could not flush in time: fail it with a typed
        // error rather than serving it late into a closed window.
        drain_aborted = true;
        for (QueuedRequest& request : admission_->Abort()) {
          SendError(std::static_pointer_cast<Connection>(request.context),
                    WireError::kUnavailable, 0,
                    "daemon drain deadline exceeded");
        }
      }
      if (workers_done) {
        // Everything admitted has been answered (or failed above). Close
        // out: connections, final snapshot, exit.
        for (auto& [fd, conn] : conns) {
          conn->closed.store(true, std::memory_order_release);
        }
        conns.clear();
        connections_open_.store(0, std::memory_order_relaxed);
        MaybeSnapshot(/*force=*/true);
        break;
      }
    }
  }
}

DaemonStats ServingDaemon::GetStats() const {
  DaemonStats stats;
  stats.draining = draining_.load();
  stats.connections_accepted = connections_accepted_.load();
  stats.connections_open = connections_open_.load();
  stats.protocol_errors = protocol_errors_.load();
  stats.io_errors = io_errors_.load();
  stats.warm_restored_entries = warm_restored_entries_.load();
  stats.snapshots_written = snapshots_written_.load();
  stats.service = service_->GetStats();
  stats.tenants = admission_->CountersSnapshot();
  stats.tenant_overflow = admission_->OverflowCounters();
  {
    std::shared_lock<std::shared_mutex> model_lock(model_mu_);
    stats.current_fingerprint = config_.model_fingerprint;
  }
  stats.drift_enabled = sentinel_ != nullptr;
  if (sentinel_ != nullptr) {
    stats.drift = sentinel_->Snapshot();
    stats.adaptations_completed =
        adaptations_completed_.load(std::memory_order_relaxed);
    stats.adaptations_resumed =
        adaptations_resumed_.load(std::memory_order_relaxed);
    const uint64_t observed = drift_observed_.load(std::memory_order_relaxed);
    if (observed > 0) {
      stats.drift_observe_us_per_plan =
          static_cast<double>(drift_observe_ns_.load(
              std::memory_order_relaxed)) *
          1e-3 / static_cast<double>(observed);
    }
  }
  return stats;
}

std::string ServingDaemon::StatsJson() const {
  const DaemonStats stats = GetStats();
  std::ostringstream os;
  os.precision(6);
  os << "{\n"
     << "  \"draining\": " << (stats.draining ? "true" : "false") << ",\n"
     << "  \"connections_accepted\": " << stats.connections_accepted << ",\n"
     << "  \"connections_open\": " << stats.connections_open << ",\n"
     << "  \"protocol_errors\": " << stats.protocol_errors << ",\n"
     << "  \"io_errors\": " << stats.io_errors << ",\n"
     << "  \"warm_restored_entries\": " << stats.warm_restored_entries
     << ",\n"
     << "  \"snapshots_written\": " << stats.snapshots_written << ",\n"
     << "  \"model_fingerprint\": " << stats.current_fingerprint << ",\n";
  os << "  \"drift\": {\n"
     << "    \"enabled\": " << (stats.drift_enabled ? "true" : "false");
  if (stats.drift_enabled) {
    const drift::DriftStatusSnapshot& d = stats.drift;
    os << ",\n"
       << "    \"state\": \"" << drift::DriftStateName(d.state) << "\",\n"
       << "    \"stale\": "
       << (d.state == drift::DriftState::kDrifted ||
                   d.state == drift::DriftState::kAdapting
               ? "true"
               : "false")
       << ",\n"
       << "    \"score\": " << d.last_score << ",\n"
       << "    \"windows\": " << d.windows << ",\n"
       << "    \"alarms\": " << d.alarms << ",\n"
       << "    \"observed_plans\": " << d.observed_plans << ",\n"
       << "    \"slice_size\": " << d.slice_size << ",\n"
       << "    \"adaptations_completed\": " << stats.adaptations_completed
       << ",\n"
       << "    \"adaptations_resumed\": " << stats.adaptations_resumed << ",\n"
       << "    \"observe_us_per_plan\": " << stats.drift_observe_us_per_plan;
    if (d.has_report) {
      const drift::DriftWindowReport& r = d.last_report;
      os << ",\n    \"last_window\": {"
         << "\"plans\": " << r.plans << ", \"novel_rate\": " << r.novel_rate
         << ", \"novel_score\": " << r.novel_score
         << ", \"token_score\": " << r.token_score
         << ", \"cluster_score\": " << r.cluster_score
         << ", \"outlier_rate\": " << r.outlier_rate
         << ", \"score\": " << r.score << ", \"dominant\": \""
         << drift::DriftComponentName(r.dominant) << "\", \"top_tokens\": [";
      for (size_t i = 0; i < r.top_tokens.size(); ++i) {
        os << (i == 0 ? "" : ", ") << "{\"name\": ";
        WriteJsonString(os, r.top_tokens[i].name);
        os << ", \"delta\": " << r.top_tokens[i].delta << "}";
      }
      os << "], \"top_clusters\": [";
      for (size_t i = 0; i < r.top_clusters.size(); ++i) {
        os << (i == 0 ? "" : ", ")
           << "{\"cluster\": " << r.top_clusters[i].cluster
           << ", \"delta\": " << r.top_clusters[i].delta << "}";
      }
      os << "]}";
    }
  }
  os << "\n  },\n"
     << "  \"service\": {\n"
     << "    \"requests\": " << stats.service.requests << ",\n"
     << "    \"plans\": " << stats.service.plans << ",\n"
     << "    \"encoded_plans\": " << stats.service.encoded_plans << ",\n"
     << "    \"plans_per_second\": " << stats.service.plans_per_second
     << ",\n"
     << "    \"p50_ms\": " << stats.service.p50_ms << ",\n"
     << "    \"p99_ms\": " << stats.service.p99_ms << ",\n"
     << "    \"latency_samples\": " << stats.service.latency_samples << ",\n"
     << "    \"cache_hits\": " << stats.service.cache.hits << ",\n"
     << "    \"cache_misses\": " << stats.service.cache.misses << ",\n"
     << "    \"cache_evictions\": " << stats.service.cache.evictions << ",\n"
     << "    \"cache_entries\": " << stats.service.cache.entries << ",\n"
     << "    \"cache_hit_rate\": " << stats.service.cache.HitRate() << ",\n"
     << "    \"peak_rss_bytes\": " << stats.service.peak_rss_bytes << ",\n"
     << "    \"packed_growth_events\": " << stats.service.packed_growth_events
     << ",\n"
     << "    \"simd_level\": ";
  WriteJsonString(os, stats.service.simd_level);
  const nn::MemoryStats& mem = stats.service.memory;
  os << ",\n"
     << "    \"memory\": {"
     << "\"bytes_requested\": " << mem.bytes_requested
     << ", \"arena_hits\": " << mem.arena_hits
     << ", \"arena_misses\": " << mem.arena_misses
     << ", \"recycled_buffers\": " << mem.recycled_buffers
     << ", \"released_buffers\": " << mem.released_buffers
     << ", \"epochs\": " << mem.epochs
     << ", \"peak_arena_bytes\": " << mem.peak_arena_bytes << "}\n"
     << "  },\n";
  auto write_counters = [&os](const TenantCounters& counters) {
    os << "{"
       << "\"admitted\": " << counters.admitted
       << ", \"completed\": " << counters.completed
       << ", \"plans\": " << counters.plans
       << ", \"shed_quota\": " << counters.shed_quota
       << ", \"shed_queue_full\": " << counters.shed_queue_full
       << ", \"shed_draining\": " << counters.shed_draining
       << ", \"shed_deadline\": " << counters.shed_deadline
       << ", \"deadline_missed\": " << counters.deadline_missed
       << ", \"queue_depth\": " << counters.queue_depth << "}";
  };
  os << "  \"tenant_overflow\": ";
  write_counters(stats.tenant_overflow);
  os << ",\n  \"tenants\": {";
  bool first = true;
  for (const auto& [name, counters] : stats.tenants) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    ";
    WriteJsonString(os, name);
    os << ": ";
    write_counters(counters);
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

}  // namespace qpe::serve
