// qpe_sysbench: system benchmark of the query plan encoder library.
//
//   qpe_sysbench --workload <serve_repeat|serve_novel|train_encoders>
//                --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Prints "# key: value" stamp lines, then one JSON result line (last line
// of stdout): with --trace 0 the end-to-end metrics, with --trace 1 the
// per-layer metrics of a traced replay. Every per-layer metric is printed
// on every workload; a layer the workload never calls reads 0. See
// README.md in this directory for the workloads and metrics.

#include <signal.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <set>
#include <string>

#include "common.h"
#include "nn/simd.h"

namespace {

// Every per-layer metric, in BENCHMARK.json order.
const sysbench::Metric kPerLayer[] = {
    {"plan.parse_us", 0, "us"},
    {"plan.fingerprint_us", 0, "us"},
    {"service.encode_all_us", 0, "us"},
    {"cache.hit_ratio", 0, "ratio"},
    {"wire.request_parse_us", 0, "us"},
    {"wire.response_encode_us", 0, "us"},
    {"drift.observe_us", 0, "us"},
    {"encoder.encode_batch_us", 0, "us"},
    {"nn.pack_us", 0, "us"},
    {"cache.evictions_per_plan", 0, "ratio"},
    {"memory.packed_growth_events", 0, "count"},
    {"memory.heap_acquisitions", 0, "count"},
    {"encoder.int8_encode_batch_us", 0, "us"},
    {"daemon.unattributed_us", 0, "us"},
    {"admission.shed", 0, "count"},
    {"admission.deadline_missed", 0, "count"},
    {"admission.queue_full", 0, "count"},
    {"smatch.flatten_us", 0, "us"},
    {"smatch.score_ms", 0, "ms"},
    {"ppsr.forward_ms", 0, "ms"},
    {"ppsr.backward_ms", 0, "ms"},
    {"optimizer.step_ms", 0, "ms"},
    {"perf.forward_ms", 0, "ms"},
    {"perf.backward_ms", 0, "ms"},
    {"simdb.run_us", 0, "us"},
    {"train.label_pairs_per_s", 0, "1/s"},
    {"train.train_pairs_per_s", 0, "1/s"},
    {"train.perf_samples_per_s", 0, "1/s"},
    {"trace.overhead_pct", 0, "%"},
};

int Usage(const char* msg) {
  std::cerr << "qpe_sysbench: " << msg
            << "\nusage: qpe_sysbench --workload <serve_repeat|serve_novel|"
               "train_encoders> --seed <n> --seconds <s> --trace <0|1> "
               "[--work-dir <dir>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  sysbench::Args args;
  bool daemon_child = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--daemon-child") {
      daemon_child = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--socket") {
      args.socket_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  // A vanished peer must surface as an error return, not kill the process.
  signal(SIGPIPE, SIG_IGN);
  if (daemon_child) return sysbench::DaemonChildMain(args);

  const std::string build_type = QPE_BUILD_TYPE;
  sysbench::PrintStamp("build_type", build_type);
  if (build_type != "Release") {
    std::cerr << "qpe_sysbench: refusing to measure a " << build_type
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
  if (args.seconds <= 0) return Usage("--seconds must be positive");
  sysbench::PrintStamp("workload", args.workload);
  sysbench::PrintStamp("seed", std::to_string(args.seed));
  sysbench::PrintStamp("trace", args.trace ? "1" : "0");
  sysbench::PrintStamp("simd_level", qpe::nn::simd::LevelName(
                                         qpe::nn::simd::ActiveLevel()));
  sysbench::PrintStamp("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));

  sysbench::Result result;
  if (args.workload == "serve_repeat" || args.workload == "serve_novel") {
    result = sysbench::RunServeWorkload(args);
  } else if (args.workload == "train_encoders") {
    result = sysbench::RunTrainWorkload(args);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (args.trace) {
    std::set<std::string> present;
    for (const auto& m : result.metrics) present.insert(m.name);
    for (const auto& m : kPerLayer) {
      if (!present.count(m.name)) result.metrics.push_back(m);
    }
  }
  sysbench::PrintStamp("attempted", std::to_string(result.attempted));
  sysbench::PrintStamp("failed", std::to_string(result.failed));
  sysbench::PrintResult(result);
  return 0;
}
