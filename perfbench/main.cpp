// Benchmark program: one workload per process.
//
//   perfbench --workload <doc_qa|chat|tenants|session> --seed <n>
//             --seconds <s> --trace <0|1> [--tmpdir <dir>]
//             [--threads <n>] [--mode <pool|batching>]
//
// --threads sets the kernel pool size (default 1; 0 = the program's
// default of one thread per core); --mode overrides the workload's Server
// mode. Both exist for the README's reference figures; the benchmark's
// own runs use neither.
//
// Prints informational lines, then as its last line one JSON object with
// the keys correct, attempted, failed and metrics. run.py builds this
// program and forwards that line.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "bench.h"
#include "obs/trace.h"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double at = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(at));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (at - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void info(const std::string& key, const std::string& json_value) {
  std::cout << "{\"info\": \"" << key << "\", \"value\": " << json_value
            << "}" << std::endl;
}

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<doc_qa|chat|tenants|session> --seed <n> --seconds <s> "
               "--trace <0|1> [--tmpdir <dir>] [--threads <n>] "
               "[--mode <pool|batching>]\n",
               why);
  return 2;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      args.trace = val == "1";
    } else if (key == "--tmpdir") {
      args.tmpdir = val;
    } else if (key == "--threads") {
      args.threads = std::atoi(val.c_str());
    } else if (key == "--mode" && (val == "pool" || val == "batching")) {
      args.mode = val;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (args.workload.empty() || args.seconds <= 0) {
    return usage("missing --workload or --seconds");
  }
  // The measured configuration is the program's default one: no quantized
  // KV format, no injected faults, no environment-selected disk tier.
  for (const char* var : {"PC_KV_FORMAT", "PC_FAULTS", "PC_DISK_DIR"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", var);
      return 3;
    }
  }
  pc::obs::set_tracing(false);
  Metrics m;
  Outcome o;
  try {
    Inputs in = make_inputs(args.workload, args.seed);
    if (!args.mode.empty()) in.traffic.server.batching = args.mode == "batching";
    // One kernel thread per engine unless --threads says otherwise
    // (README: "Kernel threads"): the default pool fans every matmul out to
    // one thread per core, and the wake-up latency of idle cores made
    // identical runs disagree by up to 2x. Set before anything touches
    // ThreadPool::global().
    if (args.threads > 0) {
      setenv("PC_THREADS", std::to_string(args.threads).c_str(), 1);
    } else {
      unsetenv("PC_THREADS");
    }
    if (args.trace) {
      run_layers(args, in, m, o);
    } else if (in.session != nullptr) {
      run_session(args, in, m, o);
    } else {
      run_serve(args, in.traffic, m, o);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  for (const std::string& p : o.problems) {
    std::cerr << "perfbench: check failed: " << p << "\n";
  }
  std::ostringstream os;
  os << "{\"correct\": " << (o.correct ? "true" : "false")
     << ", \"attempted\": " << o.attempted << ", \"failed\": " << o.failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < m.items.size(); ++i) {
    os << (i ? ", " : "") << "\"" << m.items[i].name
       << "\": {\"value\": " << json_number(m.items[i].value)
       << ", \"unit\": \"" << m.items[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
  return 0;
}
