// Serving-daemon tests: the length-prefixed wire protocol (round trips,
// hostile-input rejection, MutateBytes fuzzing), socket IO helpers and the
// async-signal-safe self-pipe, token buckets, admission control (zero-quota
// tenants, expired deadlines, bounded queues, weighted-fair dequeue, drain
// and abort), cache snapshot/restore and torn-free stats, crash-safe warm
// state, and the ServingDaemon end to end over a real Unix socket —
// including typed shedding under overload, graceful drain with warm
// restart, garbage frames, injected IO faults, and the SIGTERM path.

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "data/plan_corpus.h"
#include "encoder/structure_encoder.h"
#include "nn/simd.h"
#include "gtest/gtest.h"
#include "plan/serialize.h"
#include "serve/admission.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/embedding_cache.h"
#include "serve/embedding_service.h"
#include "serve/tenant.h"
#include "serve/warm_state.h"
#include "serve/wire_protocol.h"
#include "util/fault_injection.h"
#include "util/fuzz.h"
#include "util/rng.h"
#include "util/socket.h"
#include "util/status.h"

namespace qpe {
namespace {

using serve::AdmissionController;
using serve::DaemonClient;
using serve::EncodeRequest;
using serve::EncodeResponse;
using serve::ErrorResponse;
using serve::Frame;
using serve::FrameParse;
using serve::FrameType;
using serve::QueuedRequest;
using serve::ServingDaemon;
using serve::ServingDaemonConfig;
using serve::TenantConfig;
using serve::WireError;

encoder::StructureEncoderConfig SmallConfig() {
  encoder::StructureEncoderConfig config;
  config.level1_dim = 12;
  config.level2_dim = 6;
  config.level3_dim = 6;
  config.num_heads = 2;
  config.ff_dim = 32;
  config.num_layers = 2;
  config.max_len = 128;
  config.dropout = 0.0f;
  return config;
}

std::vector<std::string> SamplePlanTexts(int count, uint64_t seed) {
  data::CorpusOptions options;
  options.min_nodes = 4;
  options.max_nodes = 16;
  data::RandomPlanGenerator generator(util::Rng(seed), options);
  std::vector<std::string> plans;
  plans.reserve(count);
  for (int i = 0; i < count; ++i) {
    plans.push_back(plan::SerializePlanNode(*generator.Generate()));
  }
  return plans;
}

std::string TestSocketPath(const char* tag) {
  return "/tmp/qpe_daemon_test_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

QueuedRequest MakeRequest(const std::string& tenant, uint32_t cost,
                          double deadline =
                              std::numeric_limits<double>::infinity()) {
  QueuedRequest request;
  request.tenant = tenant;
  request.cost = cost;
  request.deadline = deadline;
  return request;
}

// Reads one frame off a raw fd (header then payload), like DaemonClient
// does, for tests that write hostile bytes directly.
util::Status ReadFrameRaw(int fd, Frame* out) {
  char header[serve::kFrameHeaderSize];
  if (util::Status s = util::ReadFull(fd, header, sizeof(header)); !s.ok()) {
    return s;
  }
  uint32_t magic = 0, payload_size = 0;
  std::memcpy(&magic, header, 4);
  std::memcpy(&payload_size, header + 8, 4);
  if (magic != serve::kWireMagic) return util::DataLossError("bad magic");
  out->type = static_cast<FrameType>(header[5]);
  out->payload.resize(payload_size);
  if (payload_size == 0) return util::OkStatus();
  return util::ReadFull(fd, out->payload.data(), payload_size);
}

// --- Wire protocol ---------------------------------------------------------

TEST(WireProtocolTest, FrameRoundTripAllTypes) {
  for (const FrameType type :
       {FrameType::kEncodeRequest, FrameType::kStatsRequest,
        FrameType::kPingRequest, FrameType::kEncodeResponse,
        FrameType::kStatsResponse, FrameType::kPongResponse,
        FrameType::kErrorResponse}) {
    const std::string payload = type == FrameType::kPingRequest
                                    ? ""
                                    : std::string("payload-bytes\x00\xff", 15);
    const std::string wire = serve::EncodeFrame(type, payload);
    ASSERT_EQ(wire.size(), serve::kFrameHeaderSize + payload.size());
    Frame frame;
    size_t consumed = 0;
    util::Status error;
    ASSERT_EQ(serve::NextFrame(wire, 1 << 20, &frame, &consumed, &error),
              FrameParse::kFrame);
    EXPECT_EQ(consumed, wire.size());
    EXPECT_EQ(frame.type, type);
    EXPECT_EQ(frame.payload, payload);
  }
}

TEST(WireProtocolTest, NextFrameExtractsBackToBackFrames) {
  const std::string a = serve::EncodeFrame(FrameType::kPingRequest, "");
  const std::string b = serve::EncodeFrame(FrameType::kStatsRequest, "");
  std::string buf = a + b;
  Frame frame;
  size_t consumed = 0;
  util::Status error;
  ASSERT_EQ(serve::NextFrame(buf, 1 << 20, &frame, &consumed, &error),
            FrameParse::kFrame);
  EXPECT_EQ(frame.type, FrameType::kPingRequest);
  buf.erase(0, consumed);
  ASSERT_EQ(serve::NextFrame(buf, 1 << 20, &frame, &consumed, &error),
            FrameParse::kFrame);
  EXPECT_EQ(frame.type, FrameType::kStatsRequest);
  EXPECT_EQ(buf.size(), consumed);
}

TEST(WireProtocolTest, EveryPrefixOfValidFrameNeedsMore) {
  const std::string wire =
      serve::EncodeFrame(FrameType::kEncodeRequest, "abcdef");
  for (size_t len = 0; len < wire.size(); ++len) {
    Frame frame;
    size_t consumed = 0;
    util::Status error;
    EXPECT_EQ(serve::NextFrame(std::string_view(wire.data(), len), 1 << 20,
                               &frame, &consumed, &error),
              FrameParse::kNeedMore)
        << "prefix length " << len;
  }
}

TEST(WireProtocolTest, GarbageIsRejectedBeforeFullHeaderArrives) {
  // The first byte already rules out the magic: the parser must not wait
  // for 12 bytes to call it garbage.
  Frame frame;
  size_t consumed = 0;
  util::Status error;
  EXPECT_EQ(serve::NextFrame("garbage!", 1 << 20, &frame, &consumed, &error),
            FrameParse::kError);
  EXPECT_FALSE(error.ok());
}

TEST(WireProtocolTest, HostileHeadersAreTypedErrors) {
  const auto parse = [](std::string wire) {
    Frame frame;
    size_t consumed = 0;
    util::Status error;
    const FrameParse result =
        serve::NextFrame(wire, /*max_payload=*/4096, &frame, &consumed,
                         &error);
    return std::make_pair(result, error);
  };
  std::string good = serve::EncodeFrame(FrameType::kPingRequest, "");

  std::string bad_version = good;
  bad_version[4] = 9;
  EXPECT_EQ(parse(bad_version).first, FrameParse::kError);

  std::string bad_type = good;
  bad_type[5] = 120;
  EXPECT_EQ(parse(bad_type).first, FrameParse::kError);

  std::string bad_reserved = good;
  bad_reserved[6] = 1;
  EXPECT_EQ(parse(bad_reserved).first, FrameParse::kError);

  std::string oversized = good;
  const uint32_t huge = 1u << 30;  // > max_payload: reject without buffering
  std::memcpy(oversized.data() + 8, &huge, 4);
  const auto [result, error] = parse(oversized);
  EXPECT_EQ(result, FrameParse::kError);
  EXPECT_FALSE(error.ok());
}

TEST(WireProtocolTest, EncodeRequestRoundTripAndHeadPeek) {
  EncodeRequest request;
  request.tenant = "analytics";
  request.deadline_ms = 1500;
  request.plans = {"(op \"Sort\")", "(op \"Scan-Seq\" :rel orders)"};
  const std::string payload = serve::EncodeEncodeRequestPayload(request);

  const auto head = serve::PeekEncodeRequestHead(payload, 16);
  ASSERT_TRUE(head.ok()) << head.status().ToString();
  EXPECT_EQ(head->tenant, "analytics");
  EXPECT_EQ(head->deadline_ms, 1500u);
  EXPECT_EQ(head->plan_count, 2u);

  const auto parsed = serve::ParseEncodeRequestPayload(payload, 16);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->tenant, request.tenant);
  EXPECT_EQ(parsed->deadline_ms, request.deadline_ms);
  EXPECT_EQ(parsed->plans, request.plans);

  // A plan count over the limit is rejected by the cheap peek already.
  EXPECT_FALSE(serve::PeekEncodeRequestHead(payload, 1).ok());
  EXPECT_FALSE(serve::ParseEncodeRequestPayload(payload, 1).ok());
  // Truncation anywhere is an error, never an over-read.
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(serve::ParseEncodeRequestPayload(
                     std::string_view(payload.data(), len), 16)
                     .ok());
  }
}

TEST(WireProtocolTest, EncodeResponseRoundTrip) {
  EncodeResponse response;
  response.dim = 3;
  response.embeddings = {{1.5f, -2.0f, 0.25f}, {0.0f, 7.0f, -0.5f}};
  const std::string payload = serve::EncodeEncodeResponsePayload(response);
  const auto parsed = serve::ParseEncodeResponsePayload(payload);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->dim, 3u);
  EXPECT_EQ(parsed->embeddings, response.embeddings);
}

TEST(WireProtocolTest, ErrorResponseRoundTrip) {
  ErrorResponse error;
  error.code = WireError::kResourceExhausted;
  error.retry_after_ms = serve::kRetryNever;
  error.message = "tenant quota can never cover this request";
  const std::string payload = serve::EncodeErrorResponsePayload(error);
  const auto parsed = serve::ParseErrorResponsePayload(payload);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->code, WireError::kResourceExhausted);
  EXPECT_EQ(parsed->retry_after_ms, serve::kRetryNever);
  EXPECT_EQ(parsed->message, error.message);
}

TEST(WireProtocolTest, FuzzedFramesNeverCrashOrOverRead) {
  EncodeRequest request;
  request.tenant = "fuzz";
  request.deadline_ms = 250;
  request.plans = SamplePlanTexts(3, 11);
  const std::string seed_frame = serve::EncodeFrame(
      FrameType::kEncodeRequest, serve::EncodeEncodeRequestPayload(request));

  util::Rng rng(20260808);
  const int iters = util::FuzzIterationsFromEnv(400);
  for (int i = 0; i < iters; ++i) {
    std::string buf = util::MutateBytes(seed_frame, &rng, 1 + (i % 8));
    // Drive the buffer exactly as the daemon's IO loop does.
    int guard = 0;
    while (++guard < 64) {
      Frame frame;
      size_t consumed = 0;
      util::Status error;
      const FrameParse result =
          serve::NextFrame(buf, /*max_payload=*/1 << 16, &frame, &consumed,
                           &error);
      if (result == FrameParse::kNeedMore || result == FrameParse::kError) {
        break;
      }
      ASSERT_LE(consumed, buf.size()) << "iteration " << i;
      ASSERT_GT(consumed, size_t{0}) << "iteration " << i;
      // A structurally valid frame may still carry a mutated payload: the
      // payload parsers must reject or accept without crashing either way.
      (void)serve::ParseEncodeRequestPayload(frame.payload, 64);
      (void)serve::PeekEncodeRequestHead(frame.payload, 64);
      buf.erase(0, consumed);
    }
  }
}

TEST(WireProtocolTest, FuzzedPayloadsNeverCrash) {
  EncodeRequest request;
  request.tenant = "fuzz";
  request.plans = SamplePlanTexts(2, 12);
  const std::string request_payload =
      serve::EncodeEncodeRequestPayload(request);
  EncodeResponse response;
  response.dim = 4;
  response.embeddings = {{1, 2, 3, 4}};
  const std::string response_payload =
      serve::EncodeEncodeResponsePayload(response);
  ErrorResponse error;
  error.code = WireError::kUnavailable;
  error.message = "draining";
  const std::string error_payload = serve::EncodeErrorResponsePayload(error);

  util::Rng rng(7);
  const int iters = util::FuzzIterationsFromEnv(400);
  for (int i = 0; i < iters; ++i) {
    (void)serve::ParseEncodeRequestPayload(
        util::MutateBytes(request_payload, &rng, 1 + (i % 6)), 64);
    (void)serve::PeekEncodeRequestHead(
        util::MutateBytes(request_payload, &rng, 1 + (i % 6)), 64);
    (void)serve::ParseEncodeResponsePayload(
        util::MutateBytes(response_payload, &rng, 1 + (i % 6)));
    (void)serve::ParseErrorResponsePayload(
        util::MutateBytes(error_payload, &rng, 1 + (i % 6)));
  }
}

// --- Socket helpers and the self-pipe --------------------------------------

TEST(SocketTest, WriteFullSurvivesInjectedShortWrites) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  util::UniqueFd a(fds[0]), b(fds[1]);
  const std::string message(100, 'x');
  {
    // Every chunk is truncated to one byte: 100 matching calls, all armed
    // one at a time would be slow — arm the first and rely on the loop.
    util::ScopedFaultInjection guard("socket.write.short", 1);
    ASSERT_TRUE(util::WriteFull(a.get(), message.data(), message.size()).ok());
  }
  std::string received(message.size(), '\0');
  ASSERT_TRUE(util::ReadFull(b.get(), received.data(), received.size()).ok());
  EXPECT_EQ(received, message);
}

TEST(SocketTest, WriteFullReportsInjectedFailure) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  util::UniqueFd a(fds[0]), b(fds[1]);
  util::ScopedFaultInjection guard("socket.write", 1);
  const util::Status s = util::WriteFull(a.get(), "abc", 3);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), util::StatusCode::kIo);
}

TEST(SocketTest, ReadFullDistinguishesCleanEofFromTruncation) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  util::UniqueFd a(fds[0]), b(fds[1]);

  // Peer closes before any byte: clean hangup (kNotFound).
  a.Reset();
  char buf[8];
  util::Status s = util::ReadFull(b.get(), buf, sizeof(buf));
  EXPECT_EQ(s.code(), util::StatusCode::kNotFound);

  // Peer closes mid-message: data loss.
  int fds2[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds2), 0);
  util::UniqueFd c(fds2[0]), d(fds2[1]);
  ASSERT_TRUE(util::WriteFull(c.get(), "abc", 3).ok());
  c.Reset();
  s = util::ReadFull(d.get(), buf, sizeof(buf));
  EXPECT_EQ(s.code(), util::StatusCode::kDataLoss);
}

TEST(SocketTest, SelfPipeNotifyAndDrain) {
  util::SelfPipe pipe;
  ASSERT_TRUE(pipe.valid());
  EXPECT_FALSE(pipe.Drain());
  pipe.Notify();
  pipe.Notify();  // coalesced: still one drain
  EXPECT_TRUE(pipe.Drain());
  EXPECT_FALSE(pipe.Drain());
}

TEST(SocketTest, SignalHandlerRoutesSigtermThroughSelfPipe) {
  util::SelfPipe pipe;
  ASSERT_TRUE(pipe.valid());
  ASSERT_TRUE(util::InstallShutdownSignalHandler(&pipe).ok());
  ASSERT_EQ(::kill(::getpid(), SIGTERM), 0);
  // The handler's write is asynchronous; poll for it.
  pollfd pfd{pipe.read_fd(), POLLIN, 0};
  ASSERT_GT(::poll(&pfd, 1, 2000), 0) << "signal never reached the pipe";
  EXPECT_TRUE(pipe.Drain());
  util::ResetShutdownSignalHandler();
}

// --- Token bucket ----------------------------------------------------------

TEST(TokenBucketTest, SpendsBurstThenRefillsAtRate) {
  serve::TokenBucket bucket(/*rate_per_sec=*/5.0, /*burst=*/10.0);
  double retry = 0;
  EXPECT_TRUE(bucket.TrySpend(10, /*now=*/0.0, &retry));  // full burst
  EXPECT_FALSE(bucket.TrySpend(1, 0.0, &retry));
  EXPECT_NEAR(retry, 0.2, 1e-9);  // 1 token at 5/sec
  EXPECT_TRUE(bucket.TrySpend(1, 0.2, &retry));
  // Refill clamps at burst: after a long idle it holds exactly `burst`.
  EXPECT_NEAR(bucket.tokens_at(1000.0), 10.0, 1e-9);
}

TEST(TokenBucketTest, RefillClampsToBurst) {
  serve::TokenBucket bucket(5.0, 10.0);
  double retry = 0;
  ASSERT_TRUE(bucket.TrySpend(10, 0.0, &retry));
  EXPECT_NEAR(bucket.tokens_at(100.0), 10.0, 1e-9);  // clamped, not 500
}

TEST(TokenBucketTest, ImpossibleCostsReportNever) {
  double retry = 0;
  serve::TokenBucket zero(0.0, 0.0);
  EXPECT_FALSE(zero.TrySpend(1, 0.0, &retry));
  EXPECT_LT(retry, 0);  // never

  serve::TokenBucket small(5.0, 4.0);
  EXPECT_FALSE(small.TrySpend(5, 0.0, &retry));  // cost > burst
  EXPECT_LT(retry, 0);
}

// --- Admission control -----------------------------------------------------

AdmissionController::Config TwoTenantConfig() {
  AdmissionController::Config config;
  config.default_tenant.max_queued_requests = 64;
  return config;
}

TEST(AdmissionTest, ZeroQuotaTenantIsAlwaysShedWithRetryNever) {
  AdmissionController::Config config;
  TenantConfig zero;
  zero.rate_plans_per_sec = 0;
  zero.burst_plans = 0;
  config.tenants["free-tier"] = zero;
  AdmissionController admission(config);

  const auto result = admission.Offer(MakeRequest("free-tier", 1), 0.0);
  EXPECT_EQ(result.decision, AdmissionController::Decision::kShedQuota);
  EXPECT_EQ(result.retry_after_ms, serve::kRetryNever);

  const auto counters = admission.CountersSnapshot();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].second.shed_quota, 1u);
  EXPECT_EQ(counters[0].second.admitted, 0u);
}

TEST(AdmissionTest, QuotaShedCarriesFiniteRetryHint) {
  AdmissionController::Config config;
  TenantConfig limited;
  limited.rate_plans_per_sec = 10;
  limited.burst_plans = 4;
  config.tenants["limited"] = limited;
  AdmissionController admission(config);

  EXPECT_EQ(admission.Offer(MakeRequest("limited", 4), 0.0).decision,
            AdmissionController::Decision::kAdmitted);
  const auto shed = admission.Offer(MakeRequest("limited", 4), 0.0);
  EXPECT_EQ(shed.decision, AdmissionController::Decision::kShedQuota);
  EXPECT_GE(shed.retry_after_ms, 1u);
  EXPECT_LT(shed.retry_after_ms, serve::kRetryNever);
}

TEST(AdmissionTest, ExpiredDeadlineIsShedAtOffer) {
  AdmissionController admission(TwoTenantConfig());
  const auto result =
      admission.Offer(MakeRequest("t", 1, /*deadline=*/1.0), /*now=*/1.0);
  EXPECT_EQ(result.decision, AdmissionController::Decision::kShedDeadline);
  const auto counters = admission.CountersSnapshot();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].second.shed_deadline, 1u);
}

TEST(AdmissionTest, BoundedQueueShedsWithRetryHint) {
  AdmissionController::Config config;
  config.default_tenant.max_queued_requests = 2;
  config.queue_full_retry_ms = 35;
  AdmissionController admission(config);

  EXPECT_EQ(admission.Offer(MakeRequest("t", 1), 0.0).decision,
            AdmissionController::Decision::kAdmitted);
  EXPECT_EQ(admission.Offer(MakeRequest("t", 1), 0.0).decision,
            AdmissionController::Decision::kAdmitted);
  const auto shed = admission.Offer(MakeRequest("t", 1), 0.0);
  EXPECT_EQ(shed.decision, AdmissionController::Decision::kShedQueueFull);
  EXPECT_EQ(shed.retry_after_ms, 35u);
  EXPECT_EQ(admission.TotalQueued(), 2u);
}

TEST(AdmissionTest, WeightedFairDequeueServesProportionally) {
  AdmissionController::Config config;
  config.default_tenant.max_queued_requests = 64;
  TenantConfig heavy;
  heavy.weight = 2.0;
  config.tenants["heavy"] = heavy;
  AdmissionController admission(config);

  for (int i = 0; i < 30; ++i) {
    ASSERT_EQ(admission.Offer(MakeRequest("heavy", 1), 0.0).decision,
              AdmissionController::Decision::kAdmitted);
    ASSERT_EQ(admission.Offer(MakeRequest("light", 1), 0.0).decision,
              AdmissionController::Decision::kAdmitted);
  }
  int heavy_served = 0, light_served = 0;
  for (int i = 0; i < 30; ++i) {
    const auto work = admission.TryPop();
    ASSERT_TRUE(work.has_value());
    (work->tenant == "heavy" ? heavy_served : light_served)++;
  }
  // Start-time WFQ with weights 2:1 serves exactly 2:1 while both are
  // backlogged.
  EXPECT_EQ(heavy_served, 20);
  EXPECT_EQ(light_served, 10);
}

TEST(AdmissionTest, DrainFlushesQueuedWorkThenStopsConsumers) {
  AdmissionController admission(TwoTenantConfig());
  ASSERT_EQ(admission.Offer(MakeRequest("t", 1), 0.0).decision,
            AdmissionController::Decision::kAdmitted);
  ASSERT_EQ(admission.Offer(MakeRequest("t", 1), 0.0).decision,
            AdmissionController::Decision::kAdmitted);
  admission.SetDraining();

  // New work is shed...
  EXPECT_EQ(admission.Offer(MakeRequest("t", 1), 0.0).decision,
            AdmissionController::Decision::kShedDraining);
  // ...but everything admitted still flows out, then consumers see the end.
  EXPECT_TRUE(admission.PopBlocking().has_value());
  EXPECT_TRUE(admission.PopBlocking().has_value());
  EXPECT_FALSE(admission.PopBlocking().has_value());
}

TEST(AdmissionTest, AbortReturnsQueuedWorkAndWakesConsumers) {
  AdmissionController admission(TwoTenantConfig());
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(admission.Offer(MakeRequest("t", 1), 0.0).decision,
              AdmissionController::Decision::kAdmitted);
  }
  const std::vector<QueuedRequest> leftover = admission.Abort();
  EXPECT_EQ(leftover.size(), 3u);
  EXPECT_EQ(admission.TotalQueued(), 0u);
  EXPECT_FALSE(admission.PopBlocking().has_value());
}

TEST(AdmissionTest, TenantNamesPastTheCapShareOneOverflowTenant) {
  // A client rotating through 100k tenant names: the first
  // kMaxTrackedTenants get their own state, every later name lands in the
  // one overflow tenant, whose single bucket (no refill, burst 8) caps what
  // all of them together can get admitted.
  AdmissionController::Config config;
  config.default_tenant.rate_plans_per_sec = 0;
  config.default_tenant.burst_plans = 8;
  config.tenants["vip"] = TenantConfig();
  AdmissionController admission(config);
  constexpr int kNames = 100000;
  int tracked_admitted = 0, overflow_admitted = 0;
  for (int i = 0; i < kNames; ++i) {
    const auto result =
        admission.Offer(MakeRequest("rotating-" + std::to_string(i), 1), 0.0);
    const bool admitted =
        result.decision == AdmissionController::Decision::kAdmitted;
    (static_cast<size_t>(i) < serve::kMaxTrackedTenants ? tracked_admitted
                                                        : overflow_admitted) +=
        admitted;
  }
  EXPECT_EQ(tracked_admitted, static_cast<int>(serve::kMaxTrackedTenants));
  EXPECT_EQ(overflow_admitted, 8);
  EXPECT_EQ(admission.CountersSnapshot().size(), serve::kMaxTrackedTenants);
  const serve::TenantCounters overflow = admission.OverflowCounters();
  EXPECT_EQ(overflow.admitted, 8u);
  EXPECT_EQ(overflow.shed_quota,
            static_cast<uint64_t>(kNames) - serve::kMaxTrackedTenants - 8);
  EXPECT_EQ(overflow.queue_depth, 8);
  // A name seen again resolves to the same state: tracked names keep their
  // own bucket, overflow names stay in the shared one.
  EXPECT_EQ(admission.Offer(MakeRequest("rotating-0", 1), 0.0).decision,
            AdmissionController::Decision::kAdmitted);
  EXPECT_EQ(admission.Offer(MakeRequest("rotating-99999", 1), 0.0).decision,
            AdmissionController::Decision::kShedQuota);
  // Configured tenants are tracked whatever the table holds.
  EXPECT_EQ(admission.Offer(MakeRequest("vip", 1), 0.0).decision,
            AdmissionController::Decision::kAdmitted);
  EXPECT_EQ(admission.CountersSnapshot().size(),
            serve::kMaxTrackedTenants + 1);
  // Overflow work is served and accounted like any tenant's.
  admission.RecordCompleted("rotating-50000");
  EXPECT_EQ(admission.OverflowCounters().completed, 1u);
  EXPECT_EQ(admission.TotalQueued(), serve::kMaxTrackedTenants + 8 + 2);
  size_t popped = 0;
  while (admission.TryPop().has_value()) ++popped;
  EXPECT_EQ(popped, serve::kMaxTrackedTenants + 8 + 2);
  EXPECT_EQ(admission.OverflowCounters().queue_depth, 0);
}

// --- Cache snapshot/restore and consistent stats ---------------------------

TEST(CacheSnapshotTest, RestoreReproducesEntriesAndLruOrder) {
  serve::EmbeddingCacheConfig config;
  config.capacity = 3;
  config.shards = 1;  // one globally-ordered LRU for the eviction check
  serve::EmbeddingCache cache(config);
  cache.Insert(1, {1.0f});
  cache.Insert(2, {2.0f});
  cache.Insert(3, {3.0f});
  ASSERT_TRUE(cache.Lookup(2, nullptr));  // refresh: LRU order is now 1,3,2

  serve::EmbeddingCache restored(config);
  restored.Restore(cache.Snapshot());
  EXPECT_EQ(restored.GetStats().entries, 3u);
  std::vector<float> value;
  ASSERT_TRUE(restored.Lookup(3, &value));
  EXPECT_EQ(value, std::vector<float>{3.0f});

  // The restored cache must evict in the original's LRU order — with key 3
  // freshly touched above, key 1 is the least recently used.
  restored.Insert(4, {4.0f});
  EXPECT_FALSE(restored.Contains(1));
  EXPECT_TRUE(restored.Contains(2));
  EXPECT_TRUE(restored.Contains(3));
  EXPECT_TRUE(restored.Contains(4));
}

TEST(CacheSnapshotTest, RestoreDoesNotCountHitsOrMisses) {
  serve::EmbeddingCache cache;
  cache.Insert(10, {1.0f});
  cache.Insert(11, {2.0f});
  serve::EmbeddingCache restored;
  restored.Restore(cache.Snapshot());
  const auto stats = restored.GetStats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(CacheStatsTest, SnapshotIsConsistentUnderConcurrentWrites) {
  // A writer alternates a guaranteed miss on shard 0 (key 2, never
  // inserted) with a guaranteed hit on shard 1 (key 1, inserted once), in
  // that order. At any consistent cut, misses - hits is 0 or 1. A
  // shard-at-a-time reader could observe shard 0's counter from long before
  // shard 1's and report hits far ahead of misses — the torn read this
  // test exists to catch.
  serve::EmbeddingCacheConfig config;
  config.capacity = 16;
  config.shards = 2;
  serve::EmbeddingCache cache(config);
  cache.Insert(1, {1.0f});  // shard 1 (low bit)

  std::atomic<bool> done{false};
  std::thread writer([&cache, &done] {
    for (int i = 0; i < 20000; ++i) {
      cache.Lookup(2, nullptr);  // miss, shard 0
      cache.Lookup(1, nullptr);  // hit, shard 1
    }
    done.store(true);
  });
  bool torn = false;
  uint64_t last_total = 0;
  while (!done.load() && !torn) {
    const auto stats = cache.GetStats();
    if (stats.misses < stats.hits || stats.misses - stats.hits > 1) {
      torn = true;
    }
    // Totals must also be monotone across snapshots.
    const uint64_t total = stats.hits + stats.misses;
    if (total < last_total) torn = true;
    last_total = total;
  }
  writer.join();
  EXPECT_FALSE(torn) << "GetStats observed a torn hit/miss snapshot";
  const auto final_stats = cache.GetStats();
  EXPECT_EQ(final_stats.hits, 20000u);
  EXPECT_EQ(final_stats.misses, 20000u);
}

TEST(CacheStatsTest, SnapshotIsWellFormedUnderConcurrentInserts) {
  // The daemon's snapshot thread walks the cache while encode workers keep
  // inserting (a warm snapshot racing live traffic). Every snapshot taken
  // mid-stream must be internally consistent: no torn rows (every
  // embedding keeps its full width and its key's marker value), no
  // duplicate keys, and never more entries than the capacity bound. Run
  // under TSan this also proves Snapshot holds the shard locks it claims.
  serve::EmbeddingCacheConfig config;
  config.capacity = 64;
  config.shards = 4;
  serve::EmbeddingCache cache(config);
  constexpr uint32_t kDim = 8;

  // The writer starts once the reader is about to snapshot, and the reader
  // snapshots at least once: otherwise a writer scheduled first can finish
  // every insert before the reader's first check and no snapshot is taken.
  std::atomic<bool> reading{false};
  std::atomic<bool> done{false};
  std::thread writer([&cache, &reading, &done] {
    while (!reading.load()) std::this_thread::yield();
    for (uint64_t i = 0; i < 20000; ++i) {
      std::vector<float> row(kDim, static_cast<float>(i));
      cache.Insert(i, std::move(row));
    }
    done.store(true);
  });
  bool malformed = false;
  int snapshots = 0;
  reading.store(true);
  do {
    const auto snapshot = cache.Snapshot();
    ++snapshots;
    if (snapshot.size() > config.capacity) malformed = true;
    std::vector<uint64_t> keys;
    for (const auto& [key, row] : snapshot) {
      keys.push_back(key);
      if (row.size() != kDim) {
        malformed = true;
        break;
      }
      for (float v : row) {
        if (v != static_cast<float>(key)) {  // torn row: mixed writes
          malformed = true;
          break;
        }
      }
    }
    std::sort(keys.begin(), keys.end());
    if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) {
      malformed = true;
    }
  } while (!done.load() && !malformed);
  writer.join();
  EXPECT_FALSE(malformed) << "Snapshot observed a torn or duplicated entry";
  EXPECT_GT(snapshots, 0);
  // The final snapshot replays into an identical cache.
  const auto final_snapshot = cache.Snapshot();
  EXPECT_EQ(final_snapshot.size(), config.capacity);
  serve::EmbeddingCache replica(config);
  replica.Restore(cache.Snapshot());
  EXPECT_EQ(replica.GetStats().entries, config.capacity);
}

// --- Warm state ------------------------------------------------------------

serve::WarmState MakeWarmState(uint64_t fingerprint, uint32_t dim,
                               int entries) {
  serve::WarmState state;
  state.model_fingerprint = fingerprint;
  state.dim = dim;
  for (int i = 0; i < entries; ++i) {
    std::vector<float> row(dim);
    for (uint32_t d = 0; d < dim; ++d) {
      row[d] = static_cast<float>(i) + 0.25f * static_cast<float>(d);
    }
    state.entries.emplace_back(1000 + i, std::move(row));
  }
  return state;
}

TEST(WarmStateTest, SaveLoadRoundTrip) {
  const std::string path =
      testing::TempDir() + "warm_roundtrip_" + std::to_string(::getpid());
  const serve::WarmState state = MakeWarmState(0xfeed, 4, 3);
  ASSERT_TRUE(serve::SaveWarmState(path, state).ok());
  ASSERT_TRUE(serve::WarmStateExists(path));

  serve::WarmState loaded;
  ASSERT_TRUE(serve::LoadWarmState(path, 0xfeed, &loaded).ok());
  EXPECT_EQ(loaded.model_fingerprint, 0xfeedu);
  EXPECT_EQ(loaded.dim, 4u);
  ASSERT_EQ(loaded.entries.size(), 3u);
  EXPECT_EQ(loaded.entries[1].first, 1001u);
  EXPECT_EQ(loaded.entries[1].second, state.entries[1].second);
  std::remove(path.c_str());
}

TEST(WarmStateTest, FingerprintMismatchRefusesRestore) {
  const std::string path =
      testing::TempDir() + "warm_fp_" + std::to_string(::getpid());
  ASSERT_TRUE(serve::SaveWarmState(path, MakeWarmState(0xaaaa, 2, 1)).ok());
  serve::WarmState loaded;
  loaded.dim = 77;  // canary: must stay untouched on refusal
  const util::Status s = serve::LoadWarmState(path, 0xbbbb, &loaded);
  EXPECT_EQ(s.code(), util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(loaded.dim, 77u);
  std::remove(path.c_str());
}

TEST(WarmStateTest, CorruptionAndTruncationAreDataLoss) {
  const std::string path =
      testing::TempDir() + "warm_corrupt_" + std::to_string(::getpid());
  ASSERT_TRUE(serve::SaveWarmState(path, MakeWarmState(0x1, 3, 4)).ok());
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << is.rdbuf();
    bytes = buffer.str();
  }
  // Flip one payload byte: CRC must catch it.
  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x40;
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
  }
  serve::WarmState loaded;
  EXPECT_EQ(serve::LoadWarmState(path, 0, &loaded).code(),
            util::StatusCode::kDataLoss);
  // Truncate: header claims more payload than the file holds.
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_FALSE(serve::LoadWarmState(path, 0, &loaded).ok());
  std::remove(path.c_str());
}

TEST(WarmStateTest, WriteFaultsLeaveNoTornFileBehind) {
  const std::string path =
      testing::TempDir() + "warm_fault_" + std::to_string(::getpid());
  const serve::WarmState original = MakeWarmState(0x2, 2, 2);
  ASSERT_TRUE(serve::SaveWarmState(path, original).ok());

  for (const char* site : {"warm_state.open_tmp", "warm_state.write",
                           "warm_state.flush", "warm_state.rename"}) {
    util::ScopedFaultInjection guard(site, 1);
    const util::Status s = serve::SaveWarmState(path, MakeWarmState(0x3, 2, 5));
    EXPECT_FALSE(s.ok()) << site;
    // The failed save left no temp file and did not touch the original.
    EXPECT_FALSE(serve::WarmStateExists(path + ".tmp")) << site;
    serve::WarmState loaded;
    ASSERT_TRUE(serve::LoadWarmState(path, 0x2, &loaded).ok()) << site;
    EXPECT_EQ(loaded.entries.size(), 2u) << site;
  }
  std::remove(path.c_str());
}

TEST(WarmStateTest, RaggedEntryIsRejectedOnSave) {
  serve::WarmState state = MakeWarmState(0x4, 3, 1);
  state.entries[0].second.resize(2);  // dim says 3
  const std::string path =
      testing::TempDir() + "warm_ragged_" + std::to_string(::getpid());
  EXPECT_EQ(serve::SaveWarmState(path, state).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_FALSE(serve::WarmStateExists(path));
}

// --- ServingDaemon end to end ----------------------------------------------

class DaemonTest : public testing::Test {
 protected:
  // Builds a deterministic small encoder; every daemon in a test shares it.
  DaemonTest() : rng_(42), encoder_(SmallConfig(), &rng_) {}

  ServingDaemonConfig BaseConfig(const char* tag) {
    ServingDaemonConfig config;
    config.socket_path = TestSocketPath(tag);
    config.workers = 2;
    config.model_fingerprint = serve::ModelFingerprint(encoder_);
    config.drain_deadline_seconds = 5.0;
    return config;
  }

  util::Rng rng_;
  encoder::TransformerPlanEncoder encoder_;
};

TEST_F(DaemonTest, PingEncodeStatsEndToEnd) {
  const ServingDaemonConfig config = BaseConfig("basic");
  ServingDaemon daemon(&encoder_, config);
  ASSERT_TRUE(daemon.Start().ok());

  auto client_or = DaemonClient::Connect(config.socket_path);
  ASSERT_TRUE(client_or.ok()) << client_or.status().ToString();
  DaemonClient client = std::move(*client_or);
  ASSERT_TRUE(client.Ping().ok());

  EncodeRequest request;
  request.tenant = "default";
  request.plans = SamplePlanTexts(5, 99);
  const auto response = client.Encode(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->embeddings.size(), 5u);
  EXPECT_EQ(response->dim, static_cast<uint32_t>(encoder_.output_dim()));

  // Bit-exactness across the wire: the daemon's embeddings must equal a
  // local EmbeddingService's for the same plans (the serving contract).
  serve::EmbeddingService local(&encoder_);
  std::vector<std::unique_ptr<plan::PlanNode>> plans;
  std::vector<const plan::PlanNode*> ptrs;
  for (const std::string& text : request.plans) {
    auto parsed = plan::ParsePlanNodeChecked(text);
    ASSERT_TRUE(parsed.ok());
    plans.push_back(std::move(*parsed));
    ptrs.push_back(plans.back().get());
  }
  const std::vector<nn::Tensor> expected = local.EncodeAll(ptrs);
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(static_cast<int>(response->embeddings[i].size()),
              expected[i].cols());
    for (int c = 0; c < expected[i].cols(); ++c) {
      EXPECT_EQ(response->embeddings[i][c], expected[i].at(0, c))
          << "embedding " << i << " differs across the wire at column " << c;
    }
  }

  const auto stats_json = client.StatsJson();
  ASSERT_TRUE(stats_json.ok()) << stats_json.status().ToString();
  EXPECT_NE(stats_json->find("\"service\""), std::string::npos);
  EXPECT_NE(stats_json->find("\"default\""), std::string::npos);
  // Memory, workspace-growth and kernel-level telemetry reach the wire.
  auto number = [&](const std::string& key) -> double {
    const size_t at = stats_json->find("\"" + key + "\": ");
    if (at == std::string::npos) {
      ADD_FAILURE() << key << " missing from STATS: " << *stats_json;
      return -1;
    }
    return std::strtod(stats_json->c_str() + at + key.size() + 4, nullptr);
  };
  EXPECT_GT(number("peak_rss_bytes"), 0);
  EXPECT_GE(number("packed_growth_events"), 1);
  EXPECT_GE(number("bytes_requested"), 0);
  EXPECT_GE(number("arena_hits"), 0);
  EXPECT_GE(number("arena_misses"), 0);
  EXPECT_GE(number("recycled_buffers"), 0);
  EXPECT_GE(number("released_buffers"), 0);
  EXPECT_GE(number("epochs"), 0);
  EXPECT_GE(number("peak_arena_bytes"), 0);
  EXPECT_NE(stats_json->find(std::string("\"simd_level\": \"") +
                             nn::simd::LevelName(nn::simd::ActiveLevel()) +
                             "\""),
            std::string::npos);
  EXPECT_NE(stats_json->find("\"tenant_overflow\": {\"admitted\": 0"),
            std::string::npos);

  daemon.Stop();
  const serve::DaemonStats stats = daemon.GetStats();
  EXPECT_EQ(stats.protocol_errors, 0u);
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].second.admitted, 1u);
  EXPECT_EQ(stats.tenants[0].second.completed, 1u);
  EXPECT_EQ(stats.tenants[0].second.plans, 5u);
}

TEST_F(DaemonTest, StatsEscapesHostileTenantName) {
  const ServingDaemonConfig config = BaseConfig("escape");
  ServingDaemon daemon(&encoder_, config);
  ASSERT_TRUE(daemon.Start().ok());
  auto client = DaemonClient::Connect(config.socket_path);
  ASSERT_TRUE(client.ok());
  EncodeRequest request;
  request.tenant = std::string("a\"b\\c") + "\n" + "\x01";
  request.plans = SamplePlanTexts(1, 7);
  ASSERT_TRUE(client->Encode(request).ok());
  const auto json = client->StatsJson();
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  daemon.Stop();

  EXPECT_NE(json->find("\"a\\\"b\\\\c\\n\\u0001\""), std::string::npos)
      << *json;
  // No raw control byte may appear inside any JSON string.
  bool in_string = false;
  for (size_t i = 0; i < json->size(); ++i) {
    const auto c = static_cast<unsigned char>((*json)[i]);
    if (in_string) {
      ASSERT_GE(c, 0x20u) << "raw control byte at offset " << i;
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    }
  }
  EXPECT_FALSE(in_string) << "unterminated string in STATS";
}

TEST_F(DaemonTest, ZeroQuotaTenantGetsTypedShedOverTheWire) {
  ServingDaemonConfig config = BaseConfig("zeroquota");
  TenantConfig zero;
  zero.rate_plans_per_sec = 0;
  zero.burst_plans = 0;
  config.admission.tenants["free-tier"] = zero;
  ServingDaemon daemon(&encoder_, config);
  ASSERT_TRUE(daemon.Start().ok());

  auto client = DaemonClient::Connect(config.socket_path);
  ASSERT_TRUE(client.ok());
  EncodeRequest request;
  request.tenant = "free-tier";
  request.plans = SamplePlanTexts(2, 5);
  ErrorResponse error;
  const auto response = client->Encode(request, &error);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(error.code, WireError::kResourceExhausted);
  EXPECT_EQ(error.retry_after_ms, serve::kRetryNever);

  // The shed is per-tenant: the default tenant still gets service on the
  // very same connection.
  request.tenant = "default";
  EXPECT_TRUE(client->Encode(request).ok());
  daemon.Stop();
}

TEST_F(DaemonTest, AlreadyExpiredDeadlineGetsTypedError) {
  const ServingDaemonConfig config = BaseConfig("deadline");
  ServingDaemon daemon(&encoder_, config);
  ASSERT_TRUE(daemon.Start().ok());

  auto client = DaemonClient::Connect(config.socket_path);
  ASSERT_TRUE(client.ok());
  EncodeRequest request;
  request.tenant = "default";
  request.deadline_ms = 0;  // expired on arrival by definition
  request.plans = SamplePlanTexts(1, 6);
  ErrorResponse error;
  const auto response = client->Encode(request, &error);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(error.code, WireError::kDeadlineExceeded);

  daemon.Stop();
  const auto stats = daemon.GetStats();
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].second.shed_deadline, 1u);
}

TEST_F(DaemonTest, OverloadShedsWithTypedErrorsAndBoundedQueue) {
  ServingDaemonConfig config = BaseConfig("overload");
  config.workers = 1;
  config.admission.default_tenant.max_queued_requests = 1;
  ServingDaemon daemon(&encoder_, config);
  ASSERT_TRUE(daemon.Start().ok());

  // Pipeline 12 ENCODE frames without reading responses: the IO thread
  // admits them microseconds apart while each encode takes milliseconds,
  // so the 1-deep queue must shed most of them.
  auto fd_or = util::ConnectUnix(config.socket_path);
  ASSERT_TRUE(fd_or.ok());
  EncodeRequest request;
  request.tenant = "default";
  request.plans = SamplePlanTexts(8, 13);
  const std::string frame = serve::EncodeFrame(
      FrameType::kEncodeRequest, serve::EncodeEncodeRequestPayload(request));
  std::string burst;
  const int kRequests = 12;
  for (int i = 0; i < kRequests; ++i) burst += frame;
  ASSERT_TRUE(util::WriteFull(fd_or->get(), burst.data(), burst.size()).ok());

  int ok = 0, shed = 0;
  for (int i = 0; i < kRequests; ++i) {
    Frame response;
    ASSERT_TRUE(ReadFrameRaw(fd_or->get(), &response).ok()) << "response " << i;
    if (response.type == FrameType::kEncodeResponse) {
      ++ok;
    } else {
      ASSERT_EQ(response.type, FrameType::kErrorResponse);
      const auto error = serve::ParseErrorResponsePayload(response.payload);
      ASSERT_TRUE(error.ok());
      EXPECT_EQ(error->code, WireError::kResourceExhausted);
      EXPECT_GE(error->retry_after_ms, 1u);
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, kRequests);
  EXPECT_GE(ok, 1) << "at least the first request must be admitted";
  EXPECT_GE(shed, 1) << "a 1-deep queue cannot absorb a 12-request burst";

  // Overload degraded requests, not the daemon: it serves again afterwards.
  auto client = DaemonClient::Connect(config.socket_path);
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Ping().ok());
  daemon.Stop();
}

TEST_F(DaemonTest, GarbageBytesGetTypedErrorAndDisconnect) {
  const ServingDaemonConfig config = BaseConfig("garbage");
  ServingDaemon daemon(&encoder_, config);
  ASSERT_TRUE(daemon.Start().ok());

  auto fd_or = util::ConnectUnix(config.socket_path);
  ASSERT_TRUE(fd_or.ok());
  const std::string garbage = "this is definitely not a QPE1 frame";
  ASSERT_TRUE(
      util::WriteFull(fd_or->get(), garbage.data(), garbage.size()).ok());
  Frame response;
  ASSERT_TRUE(ReadFrameRaw(fd_or->get(), &response).ok());
  ASSERT_EQ(response.type, FrameType::kErrorResponse);
  const auto error = serve::ParseErrorResponsePayload(response.payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->code, WireError::kInvalidArgument);
  // The daemon then hangs up on the unframed stream.
  char byte;
  EXPECT_EQ(util::ReadFull(fd_or->get(), &byte, 1).code(),
            util::StatusCode::kNotFound);

  // One hostile client never takes the daemon down.
  auto client = DaemonClient::Connect(config.socket_path);
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Ping().ok());
  daemon.Stop();
  EXPECT_GE(daemon.GetStats().protocol_errors, 1u);
}

TEST_F(DaemonTest, DeeplyNestedPlanGetsTypedErrorAndDaemonKeepsServing) {
  const ServingDaemonConfig config = BaseConfig("deepnest");
  ServingDaemon daemon(&encoder_, config);
  ASSERT_TRUE(daemon.Start().ok());

  // ~1M nested nodes in ~12 MB: under max_payload_bytes, and far past the
  // depth any recursive parse (or tree destructor) survives.
  const int kDepth = 1 << 20;
  const std::string open = "(op \"Sort\" ";
  std::string deep;
  deep.reserve(kDepth * (open.size() + 1));
  for (int i = 0; i < kDepth; ++i) deep += open;
  deep.append(kDepth, ')');
  ASSERT_LT(deep.size() + 64, config.max_payload_bytes);

  auto client = DaemonClient::Connect(config.socket_path);
  ASSERT_TRUE(client.ok());
  EncodeRequest request;
  request.tenant = "default";
  request.plans = {std::move(deep)};
  ErrorResponse error;
  const auto rejected = client->Encode(request, &error);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(error.code, WireError::kInvalidArgument);
  EXPECT_NE(error.message.find("nesting deeper than"), std::string::npos)
      << error.message;

  // The daemon survived, and serves a normal request on the same link.
  request.plans = SamplePlanTexts(3, 21);
  const auto served = client->Encode(request);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->embeddings.size(), 3u);
  daemon.Stop();
}

TEST_F(DaemonTest, OversizedFrameIsRejectedNotBuffered) {
  ServingDaemonConfig config = BaseConfig("oversize");
  config.max_payload_bytes = 1024;
  ServingDaemon daemon(&encoder_, config);
  ASSERT_TRUE(daemon.Start().ok());

  auto fd_or = util::ConnectUnix(config.socket_path);
  ASSERT_TRUE(fd_or.ok());
  // A valid header whose payload_size is over the daemon's limit. Only the
  // header is sent: the daemon must reject on the claim alone.
  std::string header = serve::EncodeFrame(FrameType::kEncodeRequest, "");
  const uint32_t huge = 1u << 24;
  std::memcpy(header.data() + 8, &huge, 4);
  ASSERT_TRUE(util::WriteFull(fd_or->get(), header.data(), header.size()).ok());
  Frame response;
  ASSERT_TRUE(ReadFrameRaw(fd_or->get(), &response).ok());
  EXPECT_EQ(response.type, FrameType::kErrorResponse);
  daemon.Stop();
  EXPECT_GE(daemon.GetStats().protocol_errors, 1u);
}

TEST_F(DaemonTest, DrainPersistsWarmStateAndRestartServesFromCache) {
  ServingDaemonConfig config = BaseConfig("drain");
  config.warm_state_path =
      testing::TempDir() + "daemon_drain_warm_" + std::to_string(::getpid());
  std::remove(config.warm_state_path.c_str());
  const std::vector<std::string> plans = SamplePlanTexts(6, 77);

  std::vector<std::vector<float>> first_run;
  {
    ServingDaemon daemon(&encoder_, config);
    ASSERT_TRUE(daemon.Start().ok());
    auto client = DaemonClient::Connect(config.socket_path);
    ASSERT_TRUE(client.ok());
    EncodeRequest request;
    request.tenant = "default";
    request.plans = plans;
    const auto response = client->Encode(request);
    ASSERT_TRUE(response.ok());
    first_run = response->embeddings;
    daemon.Stop();  // graceful drain: final warm snapshot
    EXPECT_GE(daemon.GetStats().snapshots_written, 1u);
  }
  ASSERT_TRUE(serve::WarmStateExists(config.warm_state_path));

  // Same model fingerprint: the restart restores the cache and serves the
  // whole request from it, bit-identically.
  {
    ServingDaemon daemon(&encoder_, config);
    ASSERT_TRUE(daemon.Start().ok());
    EXPECT_EQ(daemon.GetStats().warm_restored_entries, 6u);
    auto client = DaemonClient::Connect(config.socket_path);
    ASSERT_TRUE(client.ok());
    EncodeRequest request;
    request.tenant = "default";
    request.plans = plans;
    const auto response = client->Encode(request);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->embeddings, first_run);
    daemon.Stop();
    const auto stats = daemon.GetStats();
    EXPECT_EQ(stats.service.cache.hits, 6u);
    EXPECT_EQ(stats.service.cache.misses, 0u);
    EXPECT_EQ(stats.service.encoded_plans, 0u);
  }

  // A different model refuses the snapshot and starts cold.
  {
    ServingDaemonConfig cold = config;
    cold.model_fingerprint = config.model_fingerprint ^ 0x1;
    ServingDaemon daemon(&encoder_, cold);
    ASSERT_TRUE(daemon.Start().ok());
    EXPECT_EQ(daemon.GetStats().warm_restored_entries, 0u);
    daemon.Stop();
  }
  std::remove(config.warm_state_path.c_str());
}

// Every way a warm snapshot can be damaged on disk — truncation, a flipped
// payload byte (CRC mismatch), a header version from the future, a model
// fingerprint from a different build — must leave the restarted daemon
// indistinguishable from a cold start: Start() succeeds, not one snapshot
// entry reaches the cache, and the first request is served by encoding.
// This is the daemon-level counterpart of the WarmStateTest load tests:
// those prove LoadWarmState rejects the file, this proves the daemon
// survives the rejection.
TEST_F(DaemonTest, CorruptWarmStateVariantsAllStartColdAndStillServe) {
  ServingDaemonConfig config = BaseConfig("warmmatrix");
  config.warm_state_path = testing::TempDir() + "daemon_warm_matrix_" +
                           std::to_string(::getpid());
  std::remove(config.warm_state_path.c_str());
  const std::vector<std::string> plans = SamplePlanTexts(5, 61);

  // Produce a pristine snapshot the honest way: serve, then drain.
  {
    ServingDaemon daemon(&encoder_, config);
    ASSERT_TRUE(daemon.Start().ok());
    auto client = DaemonClient::Connect(config.socket_path);
    ASSERT_TRUE(client.ok());
    EncodeRequest request;
    request.tenant = "default";
    request.plans = plans;
    ASSERT_TRUE(client->Encode(request).ok());
    daemon.Stop();
  }
  std::string pristine;
  {
    std::ifstream is(config.warm_state_path, std::ios::binary);
    ASSERT_TRUE(is.good());
    std::ostringstream os;
    os << is.rdbuf();
    pristine = os.str();
  }
  // header: magic u32 | version u32 | payload_size u64 | crc u32 = 20 bytes
  ASSERT_GT(pristine.size(), 20u);

  struct Variant {
    const char* name;
    std::string bytes;            // file contents to plant
    uint64_t fingerprint_xor;     // perturbs the serving model's fingerprint
  };
  std::string truncated = pristine.substr(0, pristine.size() / 2);
  std::string flipped = pristine;
  flipped[flipped.size() - 1] ^= 0x01;  // payload byte: CRC must catch it
  std::string version_skew = pristine;
  version_skew[4] ^= 0x40;  // version u32 at offset 4: a future format
  const Variant variants[] = {
      {"truncated", truncated, 0},
      {"flipped_payload_byte", flipped, 0},
      {"version_skew", version_skew, 0},
      {"fingerprint_mismatch", pristine, 0xDEADBEEFu},
  };

  for (const Variant& variant : variants) {
    SCOPED_TRACE(variant.name);
    {
      std::ofstream os(config.warm_state_path,
                       std::ios::binary | std::ios::trunc);
      os.write(variant.bytes.data(),
               static_cast<std::streamsize>(variant.bytes.size()));
      ASSERT_TRUE(os.good());
    }
    ServingDaemonConfig damaged = config;
    damaged.model_fingerprint = config.model_fingerprint ^
                                variant.fingerprint_xor;
    ServingDaemon daemon(&encoder_, damaged);
    ASSERT_TRUE(daemon.Start().ok());
    // Zero cache mutation: the rejected snapshot contributed nothing.
    EXPECT_EQ(daemon.GetStats().warm_restored_entries, 0u);
    EXPECT_EQ(daemon.GetStats().service.cache.entries, 0u);

    auto client = DaemonClient::Connect(config.socket_path);
    ASSERT_TRUE(client.ok());
    EncodeRequest request;
    request.tenant = "default";
    request.plans = plans;
    const auto response = client->Encode(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->embeddings.size(), plans.size());
    daemon.Stop();
    const auto stats = daemon.GetStats();
    EXPECT_EQ(stats.service.cache.hits, 0u);          // nothing was warm
    EXPECT_EQ(stats.service.cache.misses, plans.size());
    EXPECT_EQ(stats.service.encoded_plans, plans.size());
  }
  std::remove(config.warm_state_path.c_str());
}

TEST_F(DaemonTest, PeriodicSnapshotsHappenWithoutDrain) {
  ServingDaemonConfig config = BaseConfig("periodic");
  config.warm_state_path =
      testing::TempDir() + "daemon_periodic_warm_" + std::to_string(::getpid());
  std::remove(config.warm_state_path.c_str());
  config.snapshot_every_requests = 1;
  ServingDaemon daemon(&encoder_, config);
  ASSERT_TRUE(daemon.Start().ok());

  auto client = DaemonClient::Connect(config.socket_path);
  ASSERT_TRUE(client.ok());
  EncodeRequest request;
  request.tenant = "default";
  request.plans = SamplePlanTexts(3, 31);
  ASSERT_TRUE(client->Encode(request).ok());

  // The IO thread snapshots on its next poll tick; a SIGKILL after this
  // point would still restart warm (the script chaos suite kills for real).
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (daemon.GetStats().snapshots_written == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(daemon.GetStats().snapshots_written, 1u);
  EXPECT_TRUE(serve::WarmStateExists(config.warm_state_path));
  daemon.Stop();
  std::remove(config.warm_state_path.c_str());
}

TEST_F(DaemonTest, DrainWithHalfReadRequestCompletesWithinDeadline) {
  ServingDaemonConfig config = BaseConfig("halfread");
  config.drain_deadline_seconds = 1.0;
  ServingDaemon daemon(&encoder_, config);
  ASSERT_TRUE(daemon.Start().ok());

  // A connection stalls mid-frame: header claims a payload that never
  // arrives. Drain must not wait for it.
  auto fd_or = util::ConnectUnix(config.socket_path);
  ASSERT_TRUE(fd_or.ok());
  const std::string full = serve::EncodeFrame(
      FrameType::kEncodeRequest,
      serve::EncodeEncodeRequestPayload(
          [] {
            EncodeRequest r;
            r.tenant = "default";
            r.plans = SamplePlanTexts(1, 3);
            return r;
          }()));
  ASSERT_TRUE(util::WriteFull(fd_or->get(), full.data(), full.size() / 2).ok());

  const auto t0 = std::chrono::steady_clock::now();
  daemon.Stop();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // Bound: drain deadline + poll granularity + generous CI slack, far below
  // "hangs forever".
  EXPECT_LT(elapsed, 4.0);
  // The half-read connection was closed out from under the stalled client:
  // clean EOF, or ECONNRESET since the daemon discarded our unread bytes.
  char byte;
  const util::Status read_status = util::ReadFull(fd_or->get(), &byte, 1);
  EXPECT_TRUE(read_status.code() == util::StatusCode::kNotFound ||
              read_status.code() == util::StatusCode::kIo)
      << read_status.ToString();
}

TEST_F(DaemonTest, SigtermDrainsThroughSelfPipe) {
  ServingDaemonConfig config = BaseConfig("sigterm");
  config.install_signal_handlers = true;
  ServingDaemon daemon(&encoder_, config);
  ASSERT_TRUE(daemon.Start().ok());
  auto client = DaemonClient::Connect(config.socket_path);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Ping().ok());

  // A real SIGTERM, exactly as a process manager would deliver it. The
  // handler only touches the pre-opened self-pipe, so this is safe at any
  // moment — including mid-encode.
  ASSERT_EQ(::kill(::getpid(), SIGTERM), 0);
  daemon.Join();
  util::ResetShutdownSignalHandler();
  EXPECT_TRUE(daemon.draining());

  // New connections are refused after drain.
  EXPECT_FALSE(DaemonClient::Connect(config.socket_path).ok());
}

TEST_F(DaemonTest, InjectedReadFaultDegradesOneConnectionOnly) {
  const ServingDaemonConfig config = BaseConfig("readfault");
  ServingDaemon daemon(&encoder_, config);
  ASSERT_TRUE(daemon.Start().ok());

  auto client_or = DaemonClient::Connect(config.socket_path);
  ASSERT_TRUE(client_or.ok());
  {
    util::ScopedFaultInjection guard("daemon.conn.read", 1);
    // The IO thread's next read attempt on this connection fails; the
    // daemon drops the connection, not itself.
    const util::Status s = client_or->Ping();
    EXPECT_FALSE(s.ok());
  }
  auto client2 = DaemonClient::Connect(config.socket_path);
  ASSERT_TRUE(client2.ok());
  EXPECT_TRUE(client2->Ping().ok());
  daemon.Stop();
  EXPECT_GE(daemon.GetStats().io_errors, 1u);
}

TEST_F(DaemonTest, InjectedResponseWriteFaultDropsConnectionNotDaemon) {
  const ServingDaemonConfig config = BaseConfig("writefault");
  ServingDaemon daemon(&encoder_, config);
  ASSERT_TRUE(daemon.Start().ok());

  // Raw ::send so the client side never passes through WriteFull — the
  // armed "socket.write" fault can only fire on the daemon's response path.
  auto fd_or = util::ConnectUnix(config.socket_path);
  ASSERT_TRUE(fd_or.ok());
  const std::string ping = serve::EncodeFrame(FrameType::kPingRequest, "");
  {
    util::ScopedFaultInjection guard("socket.write", 1);
    ASSERT_EQ(::send(fd_or->get(), ping.data(), ping.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(ping.size()));
    // The daemon's PONG write fails, so it closes the connection.
    char byte;
    EXPECT_EQ(util::ReadFull(fd_or->get(), &byte, 1).code(),
              util::StatusCode::kNotFound);
  }
  auto client = DaemonClient::Connect(config.socket_path);
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Ping().ok());
  daemon.Stop();
  EXPECT_GE(daemon.GetStats().io_errors, 1u);
}

TEST_F(DaemonTest, AcceptFaultDoesNotStopListening) {
  const ServingDaemonConfig config = BaseConfig("acceptfault");
  ServingDaemon daemon(&encoder_, config);
  ASSERT_TRUE(daemon.Start().ok());

  // connect(2) succeeds against the backlog regardless of what the
  // daemon's accept does; the armed fault makes the daemon's next accept
  // attempt fail. Listening must survive it, so at worst this client is
  // picked up on a later poll tick — and a fresh client always gets in.
  {
    util::ScopedFaultInjection guard("daemon.accept", 1);
    auto client = DaemonClient::Connect(config.socket_path);
    ASSERT_TRUE(client.ok());
    (void)client->Ping();  // may or may not be served, must not hang
  }
  auto client = DaemonClient::Connect(config.socket_path);
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Ping().ok());
  daemon.Stop();
}

}  // namespace
}  // namespace qpe
