// Serving workloads: serve_repeat and serve_novel.
//
// The daemon (serve::ServingDaemon) runs in a child process spawned from
// this binary (--daemon-child), so its peak RSS is its own and not the
// load generator's. The parent is the load generator: kConnections
// closed-loop clients (each sends its next ENCODE only after the previous
// reply is parsed) over the daemon's Unix socket. A small line protocol on
// the child's stdin/stdout carries the drift baseline corpus in, and the
// DaemonStats snapshot out; stats are read only before and after the timed
// window, never during it (EmbeddingService::GetStats copies and sorts
// every request latency under the lock EncodeAll takes).
//
// The traced run replays the same kind of requests in-process through the
// public calls the daemon makes, in its order:
//   ParseEncodeRequestPayload -> ParsePlanNodeChecked -> EncodeAll
//   (FingerprintPlan, cache lookup, EncodeBatch, cache insert)
//   -> DriftSentinel::Observe -> EncodeEncodeResponsePayload.

#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common.h"
#include "config/lhs_sampler.h"
#include "data/plan_corpus.h"
#include "drift/baseline.h"
#include "drift/sentinel.h"
#include "encoder/quantized_encoder.h"
#include "encoder/structure_encoder.h"
#include "nn/arena.h"
#include "nn/packed_batch.h"
#include "nn/simd.h"
#include "plan/fingerprint.h"
#include "plan/serialize.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/embedding_cache.h"
#include "serve/wire_protocol.h"
#include "simdb/planner.h"
#include "simdb/workloads.h"
#include "trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

extern char** environ;

namespace sysbench {
namespace {

using qpe::plan::PlanNode;

constexpr int kPlansPerRequest = 32;
constexpr int kBatchSize = 16;
constexpr size_t kCacheCapacity = 1024;
constexpr int kCacheShards = 8;
// serve_novel's warm-up: twice the capacity, so that every LRU shard is full
// and every timed insert evicts. A shard holds capacity/shards = 128 entries
// and receives a binomial share of the 2048 keys (mean 256, sd 15), so the
// emptiest shard is ~8 sd above full; at 1.25x capacity one seed in ~40
// left a shard short.
constexpr size_t kPrefillPlans = 2 * kCacheCapacity;
constexpr uint64_t kModelSeed = 20240806;  // weights are fixed, not an input
constexpr int kScalarCheckPlans = 64;
constexpr int kNovelSampleEvery = 61;  // novel responses kept for the reference check
constexpr size_t kMaxPlansPerRequest = 1024;
// Knob configurations per serve_repeat instantiation. Configurations change
// join and scan choices, so more of them make the pool's mix of plan shapes
// (and the parse cost it sets) depend less on the seed.
constexpr int kRepeatConfigs = 4;

std::unique_ptr<qpe::encoder::TransformerPlanEncoder> MakeEncoder() {
  qpe::util::Rng rng(kModelSeed);
  const qpe::encoder::StructureEncoderConfig config;  // paper defaults
  return std::make_unique<qpe::encoder::TransformerPlanEncoder>(config, &rng);
}

// --- Inputs ----------------------------------------------------------------

// One generated plan: its wire form, its fingerprint as the benchmark
// computes it, and (where a reference encode needs it) the tree.
struct PlanInput {
  std::string text;
  uint64_t fingerprint = 0;
  int nodes = 0;
  std::unique_ptr<PlanNode> tree;
};

// serve_repeat's pool: every TPC-H, TPC-DS and JOB template at two
// instantiations, each planned under kRepeatConfigs knob configurations. Many
// instantiations plan to the same tree, so the distinct structures are
// far fewer than the plans and all fit in the cache.
std::vector<PlanInput> RepeatPool(uint64_t seed) {
  qpe::util::Rng rng(StreamSeed(seed, 1));
  qpe::config::LhsSampler sampler(rng.Fork());
  const std::vector<qpe::config::DbConfig> configs = sampler.Sample(kRepeatConfigs);
  const qpe::simdb::TpchWorkload tpch(1.0);
  const qpe::simdb::TpcdsWorkload tpcds(1.0);
  const qpe::simdb::JobWorkload job;
  const qpe::simdb::BenchmarkWorkload* workloads[] = {&tpch, &tpcds, &job};
  std::vector<PlanInput> pool;
  for (const qpe::simdb::BenchmarkWorkload* w : workloads) {
    for (int t = 0; t < w->NumTemplates(); ++t) {
      for (int inst = 0; inst < 2; ++inst) {
        const qpe::simdb::QuerySpec spec = w->Instantiate(t, &rng);
        for (const qpe::config::DbConfig& config : configs) {
          qpe::simdb::Planner planner(&w->GetCatalog(), &config);
          PlanInput in;
          in.tree = std::move(planner.PlanQuery(spec).root);
          in.text = qpe::plan::SerializePlanNode(*in.tree);
          in.fingerprint = qpe::plan::FingerprintPlan(*in.tree);
          in.nodes = in.tree->NumNodes();
          pool.push_back(std::move(in));
        }
      }
    }
  }
  // Shuffled, so that the warm-up (sent in pool order) shows the drift
  // sentinel the same mix as its baseline rather than one benchmark at a
  // time.
  std::vector<PlanInput> shuffled;
  for (int i : rng.Permutation(static_cast<int>(pool.size()))) {
    shuffled.push_back(std::move(pool[static_cast<size_t>(i)]));
  }
  return shuffled;
}

// serve_novel's stream: random corpus plans (3..200 nodes). A drawn plan
// whose fingerprint the benchmark has already drawn is redrawn, so every
// plan sent is a structure the daemon has never seen.
class NovelStream {
 public:
  NovelStream(uint64_t seed, std::unordered_set<uint64_t>* drawn)
      : generator_(qpe::util::Rng(seed)), drawn_(drawn) {}

  PlanInput Next(bool keep_tree) {
    while (true) {
      std::unique_ptr<PlanNode> tree = generator_.Generate();
      const uint64_t fp = qpe::plan::FingerprintPlan(*tree);
      if (!drawn_->insert(fp).second) continue;
      PlanInput in;
      in.text = qpe::plan::SerializePlanNode(*tree);
      in.fingerprint = fp;
      in.nodes = tree->NumNodes();
      if (keep_tree) in.tree = std::move(tree);
      return in;
    }
  }

 private:
  qpe::data::RandomPlanGenerator generator_;
  std::unordered_set<uint64_t>* drawn_;
};

// "min/median/p90/max nodes, mean bytes" of a plan set, for the stamps.
std::string Makeup(const std::vector<PlanInput>& plans) {
  std::vector<double> nodes;
  double bytes = 0;
  for (const PlanInput& p : plans) {
    nodes.push_back(p.nodes);
    bytes += static_cast<double>(p.text.size());
  }
  return "nodes min " + std::to_string(static_cast<int>(Quantile(nodes, 0))) +
         " median " + std::to_string(static_cast<int>(Quantile(nodes, 0.5))) +
         " p90 " + std::to_string(static_cast<int>(Quantile(nodes, 0.9))) +
         " max " + std::to_string(static_cast<int>(Quantile(nodes, 1))) +
         ", mean " + std::to_string(static_cast<int>(bytes / std::max<size_t>(plans.size(), 1))) +
         " bytes";
}

// --- Daemon child process ----------------------------------------------------

using StatMap = std::map<std::string, double>;

// User plus system CPU time of this process, all threads.
double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

std::string StatsLine(const qpe::serve::DaemonStats& s) {
  uint64_t shed = 0, queue_full = 0, deadline_missed = 0, admitted = 0,
           completed = 0;
  for (const auto& [name, t] : s.tenants) {
    shed += t.shed_quota + t.shed_queue_full + t.shed_draining + t.shed_deadline;
    queue_full += t.shed_queue_full;
    deadline_missed += t.deadline_missed;
    admitted += t.admitted;
    completed += t.completed;
  }
  std::ostringstream out;
  out.precision(17);
  out << "stats"
      << " hits=" << s.service.cache.hits << " misses=" << s.service.cache.misses
      << " evictions=" << s.service.cache.evictions
      << " entries=" << s.service.cache.entries
      << " plans=" << s.service.plans << " requests=" << s.service.requests
      << " encoded_plans=" << s.service.encoded_plans
      << " heap_acquisitions=" << s.service.memory.arena_misses
      << " packed_growth_events=" << s.service.packed_growth_events
      << " peak_rss_bytes=" << s.service.peak_rss_bytes
      << " drift_enabled=" << (s.drift_enabled ? 1 : 0)
      << " drift_state=" << static_cast<int>(s.drift.state)
      << " drift_windows=" << s.drift.windows
      << " drift_alarms=" << s.drift.alarms
      << " drift_observe_us=" << s.drift_observe_us_per_plan
      << " shed=" << shed << " queue_full=" << queue_full
      << " deadline_missed=" << deadline_missed << " admitted=" << admitted
      << " completed=" << completed << " protocol_errors=" << s.protocol_errors
      << " io_errors=" << s.io_errors << " cpu_s=" << ProcessCpuSeconds();
  return out.str();
}

StatMap ParseStats(const std::string& line) {
  StatMap stats;
  std::istringstream in(line);
  std::string token;
  in >> token;  // "stats"
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) continue;
    stats[token.substr(0, eq)] = std::strtod(token.c_str() + eq + 1, nullptr);
  }
  return stats;
}

bool ReadExact(FILE* f, char* buf, size_t n) {
  return std::fread(buf, 1, n, f) == n;
}

bool ReadLine(FILE* f, std::string* line) {
  line->clear();
  int c;
  while ((c = std::fgetc(f)) != EOF) {
    if (c == '\n') return true;
    line->push_back(static_cast<char>(c));
  }
  return !line->empty();
}

// Handle on the spawned daemon process. The destructor closes the control
// pipe (the child drains and exits on EOF) and reaps the child.
class DaemonProcess {
 public:
  DaemonProcess() = default;
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;
  ~DaemonProcess() { Stop(); }

  bool Spawn(const Args& args, const std::string& socket_path,
             const std::vector<std::string>& corpus) {
    int to_child[2], from_child[2];
    if (pipe(to_child) != 0) return false;
    if (pipe(from_child) != 0) {
      close(to_child[0]);
      close(to_child[1]);
      return false;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, to_child[0], 0);
    posix_spawn_file_actions_adddup2(&actions, from_child[1], 1);
    posix_spawn_file_actions_addclose(&actions, to_child[1]);
    posix_spawn_file_actions_addclose(&actions, from_child[0]);
    const std::string seed = std::to_string(args.seed);
    std::vector<std::string> argv_s = {"qpe_sysbench", "--daemon-child",
                                       "--workload", args.workload,
                                       "--seed", seed,
                                       "--socket", socket_path};
    std::vector<char*> argv;
    for (std::string& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, "/proc/self/exe", &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(to_child[0]);
    close(from_child[1]);
    to_ = fdopen(to_child[1], "w");
    from_ = fdopen(from_child[0], "r");
    if (rc != 0) {
      pid_ = -1;
      return false;
    }
    std::fprintf(to_, "corpus %zu\n", corpus.size());
    for (const std::string& text : corpus) {
      std::fprintf(to_, "%zu\n", text.size());
      std::fwrite(text.data(), 1, text.size(), to_);
    }
    std::fflush(to_);
    std::string reply;
    return ReadLine(from_, &reply) && reply == "ready";
  }

  // Sends one command line and returns the child's one-line reply.
  std::string Command(const std::string& command) {
    if (to_ == nullptr) return "";
    std::fprintf(to_, "%s\n", command.c_str());
    std::fflush(to_);
    std::string reply;
    if (!ReadLine(from_, &reply)) return "";
    return reply;
  }

  StatMap Stats() { return ParseStats(Command("stats")); }

  void Stop() {
    if (to_ != nullptr) {
      std::fclose(to_);  // EOF: the child drains, exits
      to_ = nullptr;
    }
    if (from_ != nullptr) {
      std::fclose(from_);
      from_ = nullptr;
    }
    if (pid_ > 0) {
      int status = 0;
      waitpid(pid_, &status, 0);
      pid_ = -1;
    }
  }

 private:
  pid_t pid_ = -1;
  FILE* to_ = nullptr;
  FILE* from_ = nullptr;
};

// --- Closed-loop load --------------------------------------------------------

struct LoadOutcome {
  std::vector<double> latencies_ms;
  std::vector<double> done_s;  // completion time since the window opened
  uint64_t requests = 0;
  uint64_t plans = 0;
  uint64_t failed = 0;
  double seconds = 0;
  bool exhausted = false;  // serve_novel ran out of pre-generated plans
  uint64_t suspect_responses = 0;  // serve_repeat: drift state SUSPECT
};

// Per-workload request source and response check, shared by all clients.
struct LoadPlan {
  bool repeat = false;
  const std::vector<PlanInput>* plans = nullptr;
  // serve_repeat: fingerprint -> embedding returned by the miss that
  // filled the cache; every later hit must equal it bit for bit.
  const std::unordered_map<uint64_t, std::vector<float>>* filled = nullptr;
  uint64_t seed = 0;
  int dim = 0;
};

struct NovelSample {
  size_t index = 0;
  std::vector<float> embedding;
};

bool FiniteRow(const std::vector<float>& row) {
  for (float v : row) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

LoadOutcome RunClosedLoop(const std::string& socket_path, const LoadPlan& lp,
                          double seconds, std::atomic<size_t>* cursor,
                          Checks* checks, std::vector<NovelSample>* samples) {
  std::mutex mu;
  LoadOutcome total;
  const double start = NowSeconds();
  const double end = start + seconds;
  std::vector<std::thread> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c] {
      LoadOutcome local;
      std::vector<NovelSample> local_samples;
      std::vector<std::string> errors;
      qpe::util::Rng rng(StreamSeed(lp.seed, 100 + c));
      PinThread(0, kBenchCpu);
      auto client = qpe::serve::DaemonClient::Connect(socket_path);
      if (!client.ok()) {
        errors.push_back("connect: " + client.status().ToString());
      }
      std::vector<size_t> ids(kPlansPerRequest);
      const size_t n = lp.plans->size();
      while (client.ok() && NowSeconds() < end) {
        qpe::serve::EncodeRequest request;
        request.tenant = "bench";
        if (lp.repeat) {
          for (size_t& id : ids) {
            id = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
          }
        } else {
          const size_t begin = cursor->fetch_add(kPlansPerRequest);
          if (begin + kPlansPerRequest > n) {
            local.exhausted = true;
            break;
          }
          for (int k = 0; k < kPlansPerRequest; ++k) ids[k] = begin + k;
        }
        for (size_t id : ids) request.plans.push_back((*lp.plans)[id].text);
        const double t0 = NowSeconds();
        auto response = client->Encode(request);
        const double t1 = NowSeconds();
        ++local.requests;
        if (!response.ok()) {
          ++local.failed;
          errors.push_back("encode: " + response.status().ToString());
          break;
        }
        local.latencies_ms.push_back((t1 - t0) * 1e3);
        local.done_s.push_back(t1 - start);
        local.plans += kPlansPerRequest;
        bool ok = response->dim == static_cast<uint32_t>(lp.dim) &&
                  response->embeddings.size() == ids.size();
        for (size_t k = 0; ok && k < ids.size(); ++k) {
          const std::vector<float>& row = response->embeddings[k];
          ok = row.size() == static_cast<size_t>(lp.dim) && FiniteRow(row);
          if (!ok) break;
          if (lp.repeat) {
            const auto it = lp.filled->find((*lp.plans)[ids[k]].fingerprint);
            ok = it != lp.filled->end() &&
                 std::memcmp(it->second.data(), row.data(),
                             row.size() * sizeof(float)) == 0;
          } else if (ids[k] % kNovelSampleEvery == 0) {
            local_samples.push_back({ids[k], row});
          }
        }
        if (!ok) {
          errors.push_back("response " + std::to_string(local.requests) +
                           " has a wrong shape, a non-finite value or differs "
                           "from its cache fill");
        }
        if (lp.repeat) {
          // A stale response (DRIFTED/ADAPTING) on the baseline's own
          // distribution is wrong; SUSPECT is counted, not failed.
          local.suspect_responses += response->drift_state == 1 ? 1 : 0;
          if (response->stale || response->drift_state > 1) {
            errors.push_back("response " + std::to_string(local.requests) +
                             " is stale, drift state " +
                             std::to_string(response->drift_state));
          }
        }
      }
      const double finished = NowSeconds();
      std::lock_guard<std::mutex> lock(mu);
      total.seconds = std::max(total.seconds, finished - start);
      total.requests += local.requests;
      total.plans += local.plans;
      total.failed += local.failed;
      total.exhausted = total.exhausted || local.exhausted;
      total.suspect_responses += local.suspect_responses;
      total.latencies_ms.insert(total.latencies_ms.end(),
                                local.latencies_ms.begin(),
                                local.latencies_ms.end());
      total.done_s.insert(total.done_s.end(), local.done_s.begin(),
                          local.done_s.end());
      if (samples != nullptr) {
        for (NovelSample& s : local_samples) samples->push_back(std::move(s));
      }
      for (const std::string& e : errors) checks->Expect(false, e);
    });
  }
  for (std::thread& t : clients) t.join();
  return total;
}

// Sends `plans` (indices into `inputs`) in requests of kPlansPerRequest over
// one connection; returns the embeddings in order, or an empty vector on
// any failure.
std::vector<std::vector<float>> SendAll(const std::string& socket_path,
                                        const std::vector<PlanInput>& inputs,
                                        Checks* checks) {
  std::vector<std::vector<float>> out;
  auto client = qpe::serve::DaemonClient::Connect(socket_path);
  if (!client.ok()) {
    checks->Expect(false, "connect: " + client.status().ToString());
    return {};
  }
  for (size_t begin = 0; begin < inputs.size(); begin += kPlansPerRequest) {
    qpe::serve::EncodeRequest request;
    request.tenant = "bench";
    const size_t end = std::min(inputs.size(), begin + kPlansPerRequest);
    for (size_t i = begin; i < end; ++i) request.plans.push_back(inputs[i].text);
    auto response = client->Encode(request);
    if (!response.ok() || response->embeddings.size() != end - begin) {
      checks->Expect(false, "warm-up/verification request failed: " +
                                response.status().ToString());
      return {};
    }
    for (auto& row : response->embeddings) out.push_back(std::move(row));
  }
  return out;
}

double MaxAbsDiff(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return INFINITY;
  double worst = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::fabs(static_cast<double>(a[i]) - b[i]));
  }
  return worst;
}

std::vector<float> ReferenceEncode(const qpe::encoder::TransformerPlanEncoder& enc,
                                   const PlanNode& plan) {
  qpe::nn::NoGradGuard no_grad;
  return enc.Encode(plan, nullptr).value();
}

// --- Traced in-process replay --------------------------------------------------

// One replica of the daemon's per-request state: cache (same capacity and
// sharding as the daemon's) and, on serve_repeat, a drift sentinel built
// from the same baseline. The untraced and the traced pass each own one,
// so both see identical state and do identical work.
struct Replica {
  Replica() : cache(qpe::serve::EmbeddingCacheConfig{kCacheCapacity, kCacheShards}) {}
  qpe::serve::EmbeddingCache cache;
  std::unique_ptr<qpe::drift::DriftSentinel> sentinel;
};

struct ReplayCounts {
  uint64_t requests = 0;
  uint64_t plans = 0;
  uint64_t encoded = 0;
};

void ReplayRequest(const std::string& payload,
                   const qpe::encoder::TransformerPlanEncoder& encoder,
                   const qpe::encoder::QuantizedPlanEncoder* int8_encoder,
                   Replica* replica, SpanRecorder* rec, uint64_t id,
                   ReplayCounts* counts, Checks* checks) {
  const int dim = encoder.output_dim();
  std::vector<std::unique_ptr<PlanNode>> plans;
  std::vector<const PlanNode*> misses;
  {
    ScopedSpan request_span(rec, "request", id);
    qpe::util::StatusOr<qpe::serve::EncodeRequest> request =
        qpe::util::InvalidArgumentError("unparsed");
    {
      ScopedSpan s(rec, "wire.request_parse", id);
      request = qpe::serve::ParseEncodeRequestPayload(payload, kMaxPlansPerRequest);
    }
    if (!request.ok()) {
      checks->Expect(false, "replay request parse: " + request.status().ToString());
      return;
    }
    {
      ScopedSpan s(rec, "plan.parse", id);
      for (const std::string& text : request->plans) {
        auto parsed = qpe::plan::ParsePlanNodeChecked(text);
        if (!parsed.ok()) break;
        plans.push_back(std::move(*parsed));
      }
    }
    if (plans.size() != request->plans.size()) {
      checks->Expect(false, "replay plan parse failed");
      return;
    }
    const size_t n = plans.size();
    qpe::serve::EncodeResponse response;
    response.dim = static_cast<uint32_t>(dim);
    response.embeddings.resize(n);
    {
      ScopedSpan encode_all(rec, "service.encode_all", id);
      std::vector<uint64_t> keys(n);
      {
        ScopedSpan s(rec, "plan.fingerprint", id);
        for (size_t i = 0; i < n; ++i) keys[i] = qpe::plan::FingerprintPlan(*plans[i]);
      }
      std::vector<std::vector<size_t>> slots;
      {
        ScopedSpan s(rec, "cache.lookup", id);
        std::unordered_map<uint64_t, int> miss_index;
        for (size_t i = 0; i < n; ++i) {
          if (replica->cache.Lookup(keys[i], &response.embeddings[i])) continue;
          auto [it, inserted] =
              miss_index.try_emplace(keys[i], static_cast<int>(misses.size()));
          if (inserted) {
            misses.push_back(plans[i].get());
            slots.emplace_back();
          }
          slots[it->second].push_back(i);
        }
      }
      if (!misses.empty()) {
        std::vector<qpe::nn::Tensor> encoded;
        {
          ScopedSpan s(rec, "encoder.encode_batch", id);
          qpe::nn::ArenaScope arena;
          qpe::nn::NoGradGuard no_grad;
          encoded = encoder.EncodeBatch(misses, nullptr);
        }
        ScopedSpan s(rec, "cache.insert", id);
        for (size_t m = 0; m < misses.size(); ++m) {
          replica->cache.Insert(keys[slots[m][0]], encoded[m].value());
          for (size_t i : slots[m]) response.embeddings[i] = encoded[m].value();
        }
      }
    }
    if (replica->sentinel != nullptr) {
      ScopedSpan s(rec, "drift.observe", id);
      for (size_t i = 0; i < n; ++i) {
        replica->sentinel->Observe(*plans[i], response.embeddings[i].data(),
                                   static_cast<size_t>(dim));
      }
    }
    {
      ScopedSpan s(rec, "wire.response_encode", id);
      const std::string out = qpe::serve::EncodeEncodeResponsePayload(response);
      checks->Expect(!out.empty(), "replay response encode");
    }
    counts->requests += 1;
    counts->plans += n;
    counts->encoded += misses.size();
  }
  // Side measurements, outside the request span: the packing step on its
  // own (EncodeBatch repeats it internally), and the int8 engine over the
  // same batch (qpe_served cannot serve int8; reference only).
  if (!misses.empty()) {
    {
      ScopedSpan s(rec, "nn.pack", id);
      qpe::nn::PackedBatch ws;
      qpe::encoder::PackPlansColumns(misses, encoder.config().max_len, &ws);
    }
    if (int8_encoder != nullptr) {
      ScopedSpan s(rec, "encoder.int8_encode_batch", id);
      qpe::nn::ArenaScope arena;
      qpe::nn::NoGradGuard no_grad;
      (void)int8_encoder->EncodeBatch(misses, nullptr);
    }
  }
}

}  // namespace

int DaemonChildMain(const Args& args) {
  qpe::util::SetMaxThreads(kPoolThreads);
  const auto encoder = MakeEncoder();
  std::string line;
  std::vector<std::string> corpus;
  if (ReadLine(stdin, &line) && line.rfind("corpus ", 0) == 0) {
    const size_t count = std::strtoull(line.c_str() + 7, nullptr, 10);
    for (size_t i = 0; i < count; ++i) {
      if (!ReadLine(stdin, &line)) return 2;
      std::string text(std::strtoull(line.c_str(), nullptr, 10), '\0');
      if (!ReadExact(stdin, text.data(), text.size())) return 2;
      corpus.push_back(std::move(text));
    }
  }
  qpe::serve::ServingDaemonConfig config;
  config.socket_path = args.socket_path;
  config.workers = kDaemonWorkers;
  config.service.batch_size = kBatchSize;
  config.service.cache.capacity = kCacheCapacity;
  config.service.cache.shards = kCacheShards;
  config.enable_drift = !corpus.empty();
  config.drift_corpus = std::move(corpus);
  std::remove(config.socket_path.c_str());
  qpe::serve::ServingDaemon daemon(encoder.get(), config);
  const qpe::util::Status started = daemon.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "daemon start failed: %s\n", started.ToString().c_str());
    std::printf("failed\n");
    std::fflush(stdout);
    return 1;
  }
  // Start() created the worker, then the IO thread: the two newest tasks.
  std::vector<int> tids;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    tids.push_back(std::atoi(entry.path().filename().c_str()));
  }
  std::sort(tids.begin(), tids.end());
  if (tids.size() == 3) {
    PinThread(tids[1], kBenchCpu);
    PinThread(tids[2], kBenchCpu);
  }
  std::printf("ready\n");
  std::fflush(stdout);
  while (ReadLine(stdin, &line)) {
    if (line == "stats") {
      std::printf("%s\n", StatsLine(daemon.GetStats()).c_str());
    } else if (line == "scalar") {
      // Only sent while no request is in flight.
      const auto level = qpe::nn::simd::ForceLevel(qpe::nn::simd::Level::kScalar);
      std::printf("level %s\n", qpe::nn::simd::LevelName(level));
    } else {
      break;
    }
    std::fflush(stdout);
  }
  daemon.Stop();
  std::remove(config.socket_path.c_str());
  return 0;
}

Result RunServeWorkload(const Args& args) {
  const bool repeat = args.workload == "serve_repeat";
  qpe::util::SetMaxThreads(kPoolThreads);
  Checks checks;
  Result result;
  const auto encoder = MakeEncoder();
  const int dim = encoder->output_dim();
  const auto active_level = qpe::nn::simd::ActiveLevel();
  const std::string socket_path =
      args.work_dir + "/qpe_" + std::to_string(getpid()) + ".sock";

  // Inputs, generated from --seed before any timing.
  std::unordered_set<uint64_t> drawn;  // every fingerprint sent (serve_novel)
  std::vector<PlanInput> pool;         // serve_repeat: the pool
  std::vector<PlanInput> prefill;      // serve_novel: fills the cache
  std::vector<std::string> corpus;     // serve_repeat: drift baseline
  NovelStream novel(StreamSeed(args.seed, 2), &drawn);
  size_t distinct = 0;
  if (repeat) {
    pool = RepeatPool(args.seed);
    std::unordered_set<uint64_t> fps;
    for (const PlanInput& p : pool) {
      corpus.push_back(p.text);
      fps.insert(p.fingerprint);
    }
    distinct = fps.size();
  } else {
    for (size_t i = 0; i < kPrefillPlans; ++i) prefill.push_back(novel.Next(false));
  }

  // Set-up: spawn the daemon (model construction, drift baseline over the
  // corpus, socket bind), then warm the cache over the socket. Repeated;
  // the last daemon serves the timed window.
  std::unordered_map<uint64_t, std::vector<float>> filled;
  std::vector<double> setup_seconds;
  double warmup_rate = 0;
  std::unique_ptr<DaemonProcess> daemon;
  const int setups = args.trace ? 1 : kSetupRepeats;
  for (int rep = 0; rep < setups; ++rep) {
    daemon = std::make_unique<DaemonProcess>();
    const double t0 = NowSeconds();
    if (!daemon->Spawn(args, socket_path, corpus)) {
      std::cerr << "daemon did not start\n";
      result.correct = false;
      return result;
    }
    const double t1 = NowSeconds();
    const std::vector<PlanInput>& warm = repeat ? pool : prefill;
    std::vector<std::vector<float>> rows = SendAll(socket_path, warm, &checks);
    const double t2 = NowSeconds();
    setup_seconds.push_back(t2 - t0);
    warmup_rate = static_cast<double>(warm.size()) / (t2 - t1);
    if (rows.size() != warm.size()) {
      result.correct = false;
      return result;
    }
    if (repeat) {
      filled.clear();
      for (size_t i = 0; i < pool.size(); ++i) {
        filled.try_emplace(pool[i].fingerprint, std::move(rows[i]));
      }
    }
  }
  uint64_t plans_sent = repeat ? pool.size() : prefill.size();

  // serve_novel's timed stream, sized from the warm-up rate (the same
  // encode-bound path) with a wide margin; the window ends early if it runs
  // out, which is stamped.
  const double window = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<PlanInput> stream;
  if (!repeat) {
    const size_t n = static_cast<size_t>(warmup_rate * window * 2.0) + 4096;
    stream.reserve(n);
    for (size_t i = 0; i < n; ++i) stream.push_back(novel.Next(false));
  }

  const StatMap before = daemon->Stats();
  LoadPlan lp;
  lp.repeat = repeat;
  lp.plans = repeat ? &pool : &stream;
  lp.filled = &filled;
  lp.seed = args.seed;
  lp.dim = dim;
  std::atomic<size_t> cursor{0};
  std::vector<NovelSample> samples;
  const LoadOutcome load =
      RunClosedLoop(socket_path, lp, window, &cursor, &checks, &samples);
  const StatMap after = daemon->Stats();
  plans_sent += load.plans;
  result.attempted = load.requests;
  result.failed = load.failed;

  // --- Correctness, after the window -----------------------------------------
  auto delta = [&](const char* key) {
    return after.count(key) && before.count(key) ? after.at(key) - before.at(key)
                                                 : -1.0;
  };
  checks.Expect(!after.empty(), "daemon stats after the window");
  checks.Expect(load.requests > 0, "no request completed in the window");
  checks.Expect(after.count("hits") &&
                    after.at("hits") + after.at("misses") ==
                        static_cast<double>(plans_sent),
                "cache hits + misses == plans sent");
  const double window_plans = static_cast<double>(load.plans);
  if (repeat) {
    checks.Expect(after.count("drift_state") && after.at("drift_state") <= 1,
                  "drift sentinel not DRIFTED on its own baseline distribution");
    checks.Expect(delta("misses") == 0, "serve_repeat: every timed lookup hits");
    // Every distinct structure's cache fill against an in-process encode.
    double worst = 0;
    for (const PlanInput& p : pool) {
      const auto it = filled.find(p.fingerprint);
      if (it == filled.end()) continue;
      worst = std::max(worst, MaxAbsDiff(it->second, ReferenceEncode(*encoder, *p.tree)));
    }
    checks.Expect(worst <= 1e-6, "daemon embeddings within 1e-6 of Encode at the "
                                 "active SIMD level (max diff " +
                                     std::to_string(worst) + ")");
  } else {
    checks.Expect(before.count("entries") &&
                      before.at("entries") == static_cast<double>(kCacheCapacity),
                  "serve_novel: warm-up fills the cache to capacity");
    checks.Expect(delta("hits") == 0, "serve_novel: no timed lookup hits");
    checks.Expect(delta("misses") == window_plans, "serve_novel: every lookup misses");
    checks.Expect(delta("evictions") == window_plans,
                  "serve_novel: every insert evicts");
    checks.Expect(drawn.size() == prefill.size() + stream.size(),
                  "serve_novel stream repeats a plan fingerprint");
    double worst = 0;
    for (const NovelSample& s : samples) {
      auto tree = qpe::plan::ParsePlanNodeChecked(stream[s.index].text);
      if (!tree.ok()) {
        worst = INFINITY;
        break;
      }
      worst = std::max(worst, MaxAbsDiff(s.embedding, ReferenceEncode(*encoder, **tree)));
    }
    checks.Expect(!samples.empty() && worst <= 1e-6,
                  "daemon embeddings within 1e-6 of Encode at the active SIMD "
                  "level (max diff " + std::to_string(worst) + ")");
  }
  // Forced scalar: fresh plans through the daemon must equal the in-process
  // per-plan Encode bit for bit. They must be new to the daemon's cache too
  // (a cached row was computed at the active level), so serve_repeat's pool
  // structures count as drawn.
  {
    for (const PlanInput& p : pool) drawn.insert(p.fingerprint);
    NovelStream verify(StreamSeed(args.seed, 3), &drawn);
    std::vector<PlanInput> fresh;
    for (int i = 0; i < kScalarCheckPlans; ++i) fresh.push_back(verify.Next(true));
    const bool forced = daemon->Command("scalar") == "level scalar";
    qpe::nn::simd::ForceLevel(qpe::nn::simd::Level::kScalar);
    const std::vector<std::vector<float>> rows = SendAll(socket_path, fresh, &checks);
    int mismatches = rows.size() == fresh.size() ? 0 : kScalarCheckPlans;
    for (size_t i = 0; i < rows.size() && i < fresh.size(); ++i) {
      mismatches += rows[i] == ReferenceEncode(*encoder, *fresh[i].tree) ? 0 : 1;
    }
    checks.Expect(forced && mismatches == 0,
                  "forced scalar: daemon == per-plan Encode bitwise (" +
                      std::to_string(mismatches) + " of " +
                      std::to_string(kScalarCheckPlans) + " plans differ)");
    qpe::nn::simd::ForceLevel(active_level);
  }
  daemon->Stop();

  const double rtt_p50_ms = Quantile(load.latencies_ms, 0.50);
  // The window is the requested one: a closed-loop client that starts a
  // request just before it closes finishes after it, in the last slice.
  // A run whose stream ran out measures up to where it did.
  const WindowFigures figures = FastestQuarterFigures(
      load.done_s, load.latencies_ms, load.exhausted ? load.seconds : window);
  PrintStamp("connections", std::to_string(kConnections));
  PrintStamp("daemon_workers", std::to_string(kDaemonWorkers));
  PrintStamp("pool_threads", std::to_string(kPoolThreads));
  PrintStamp("plans_per_request", std::to_string(kPlansPerRequest));
  PrintStamp("cache_capacity", std::to_string(kCacheCapacity));
  if (repeat) {
    PrintStamp("pool_plans", std::to_string(pool.size()));
    PrintStamp("distinct_structures", std::to_string(distinct));
    PrintStamp("pool_makeup", Makeup(pool));
    PrintStamp("drift_suspect_responses", std::to_string(load.suspect_responses));
    PrintStamp("drift_final_state",
               std::to_string(after.count("drift_state") ? after.at("drift_state") : -1));
  } else {
    PrintStamp("prefill_plans", std::to_string(prefill.size()));
    PrintStamp("stream_plans_generated", std::to_string(stream.size()));
    PrintStamp("stream_makeup", Makeup(stream));
    PrintStamp("stream_exhausted", load.exhausted ? "yes" : "no");
  }
  PrintStamp("window_s", std::to_string(load.seconds));
  PrintStamp("requests", std::to_string(load.requests));
  PrintStamp("daemon_cpu_us_per_plan", std::to_string(1e6 * delta("cpu_s") / window_plans));
  PrintStamp("request_p99_ms (reference only)",
             std::to_string(Quantile(load.latencies_ms, 0.99)));
  PrintStamp("request_p999_ms (reference only)",
             std::to_string(Quantile(load.latencies_ms, 0.999)));
  for (const char* key : {"shed", "deadline_missed", "queue_full"}) {
    PrintStamp(std::string("admission_") + key,
               std::to_string(after.count(key) ? after.at(key) : -1));
  }

  if (!args.trace) {
    result.metrics = {
        {"setup_s", Median(setup_seconds), "s"},
        {"plans_per_s", kPlansPerRequest * figures.ops_per_s, "1/s"},
        {"op_p50_ms", figures.p50_ms, "ms"},
        {"op_p95_ms", figures.p95_ms, "ms"},
        {"peak_rss_mib",
         (after.count("peak_rss_bytes") ? after.at("peak_rss_bytes") : 0) /
             (1024.0 * 1024.0),
         "MiB"},
    };
    result.correct = checks.ok();
    return result;
  }

  // --- Traced replay ----------------------------------------------------------
  // Two replicas fed identical requests: pass A untraced, pass B traced,
  // alternating which runs first per chunk. Their time difference is the
  // tracing overhead.
  std::unique_ptr<qpe::encoder::QuantizedPlanEncoder> int8_encoder;
  Replica replicas[2];
  if (repeat) {
    std::vector<const PlanNode*> ptrs;
    for (const PlanInput& p : pool) ptrs.push_back(p.tree.get());
    const qpe::drift::DriftBaseline baseline =
        qpe::drift::BuildDriftBaseline(*encoder, ptrs);
    for (Replica& r : replicas) {
      r.sentinel = std::make_unique<qpe::drift::DriftSentinel>(baseline);
      for (const auto& [fp, row] : filled) r.cache.Insert(fp, row);
    }
  } else {
    std::vector<std::unique_ptr<PlanNode>> calibration;
    std::vector<const PlanNode*> calibration_ptrs;
    for (size_t i = 0; i < 64; ++i) {
      calibration.push_back(qpe::plan::ParsePlanNode(prefill[i].text));
      calibration_ptrs.push_back(calibration.back().get());
    }
    int8_encoder = encoder->Quantize(calibration_ptrs);
    const std::vector<float> zeros(static_cast<size_t>(dim), 0.0f);
    for (Replica& r : replicas) {
      for (const PlanInput& p : prefill) r.cache.Insert(p.fingerprint, zeros);
    }
  }
  PinThread(0, kBenchCpu);
  constexpr int kChunk = 16;  // requests per alternation
  qpe::util::Rng replay_rng(StreamSeed(args.seed, 4));
  SpanRecorder recorders[2];
  recorders[1].set_enabled(true);
  ReplayCounts counts[2];
  double pass_seconds[2] = {0, 0};
  uint64_t next_id = 1;
  const double replay_end = NowSeconds() + args.seconds / 2;
  for (int chunk = 0; NowSeconds() < replay_end; ++chunk) {
    std::vector<std::string> payloads;
    for (int r = 0; r < kChunk; ++r) {
      qpe::serve::EncodeRequest request;
      request.tenant = "bench";
      for (int k = 0; k < kPlansPerRequest; ++k) {
        if (repeat) {
          const auto i = replay_rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1);
          request.plans.push_back(pool[static_cast<size_t>(i)].text);
        } else {
          request.plans.push_back(novel.Next(false).text);
        }
      }
      payloads.push_back(qpe::serve::EncodeEncodeRequestPayload(request));
    }
    for (int order = 0; order < 2; ++order) {
      const int side = (chunk + order) % 2;
      const double t0 = NowSeconds();
      uint64_t id = next_id;
      for (const std::string& payload : payloads) {
        ReplayRequest(payload, *encoder, int8_encoder.get(), &replicas[side],
                      &recorders[side], id++, &counts[side], &checks);
      }
      pass_seconds[side] += NowSeconds() - t0;
    }
    next_id += kChunk;
  }
  const SpanRecorder& rec = recorders[1];
  const auto totals = rec.Totals();
  auto total_us = [&](const char* name, bool self) {
    const auto it = totals.find(name);
    if (it == totals.end()) return 0.0;
    return (self ? it->second.self_ns : it->second.inclusive_ns) * 1e-3;
  };
  const ReplayCounts& c = counts[1];
  const double plans = static_cast<double>(std::max<uint64_t>(c.plans, 1));
  const double requests = static_cast<double>(std::max<uint64_t>(c.requests, 1));
  const double encoded = static_cast<double>(c.encoded);
  std::vector<double> request_us;
  for (const SpanRecorder::Span& s : rec.spans()) {
    if (s.parent < 0 && std::strcmp(s.name, "request") == 0) {
      request_us.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    }
  }
  const std::string table = rec.SelfTimeTable("request");
  const std::string base = args.work_dir + "/" + args.workload + "_seed" +
                           std::to_string(args.seed);
  checks.Expect(rec.WriteSpans(base + ".spans.jsonl"), "write span file");
  std::ofstream(base + ".layers.txt") << table;
  std::cout << table;
  PrintStamp("span_file", base + ".spans.jsonl");
  PrintStamp("replayed_requests_traced", std::to_string(c.requests));

  auto per_plan_window = [&](const char* key) {
    return window_plans > 0 ? std::max(0.0, delta(key)) / window_plans : 0.0;
  };
  const double lookups = delta("hits") + delta("misses");
  result.metrics = {
      {"plan.parse_us", total_us("plan.parse", true) / plans, "us"},
      {"plan.fingerprint_us", total_us("plan.fingerprint", true) / plans, "us"},
      {"service.encode_all_us", total_us("service.encode_all", false) / plans, "us"},
      {"cache.hit_ratio", lookups > 0 ? delta("hits") / lookups : 0, "ratio"},
      {"wire.request_parse_us", total_us("wire.request_parse", true) / requests, "us"},
      {"wire.response_encode_us", total_us("wire.response_encode", true) / requests, "us"},
      {"drift.observe_us", total_us("drift.observe", true) / plans, "us"},
      {"encoder.encode_batch_us",
       encoded > 0 ? total_us("encoder.encode_batch", true) / encoded : 0, "us"},
      {"nn.pack_us", encoded > 0 ? total_us("nn.pack", true) / encoded : 0, "us"},
      {"cache.evictions_per_plan", per_plan_window("evictions"), "ratio"},
      {"memory.packed_growth_events", std::max(0.0, delta("packed_growth_events")),
       "count"},
      {"memory.heap_acquisitions", std::max(0.0, delta("heap_acquisitions")), "count"},
      {"encoder.int8_encode_batch_us",
       encoded > 0 ? total_us("encoder.int8_encode_batch", true) / encoded : 0, "us"},
      {"daemon.unattributed_us", rtt_p50_ms * 1e3 - Median(request_us), "us"},
      {"admission.shed", after.count("shed") ? after.at("shed") : -1, "count"},
      {"admission.deadline_missed",
       after.count("deadline_missed") ? after.at("deadline_missed") : -1, "count"},
      {"admission.queue_full", after.count("queue_full") ? after.at("queue_full") : -1,
       "count"},
      {"trace.overhead_pct",
       pass_seconds[0] > 0 ? 100.0 * (pass_seconds[1] - pass_seconds[0]) / pass_seconds[0]
                           : 0,
       "%"},
  };
  result.correct = checks.ok();
  return result;
}

}  // namespace sysbench
