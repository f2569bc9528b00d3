// Shared declarations of the benchmark program (perfbench/main.cpp).
//
// The program runs one workload per process: it builds that workload's
// inputs from --seed, times set-up, drives the program through its public
// APIs for --seconds, checks every output, and prints one JSON result
// line. With --trace 1 it replays the same requests one at a time through
// each layer's public calls instead and prints the per-layer metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/shared_module_store.h"
#include "model/model.h"
#include "sys/server.h"
#include "tokenizer/tokenizer.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string tmpdir = ".";  // spill files and the span dump go here
  // Kernel pool size (PC_THREADS); 0 keeps the program's default of one
  // thread per core.
  int threads = 1;
  std::string mode;          // "pool" / "batching" overrides the workload's
};

// Named metrics in print order.
struct Metrics {
  struct Item {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Item> items;
  void add(std::string name, double value, std::string unit) {
    items.push_back({std::move(name), value, std::move(unit)});
  }
};

// What the run did and whether its outputs were right. `failed` counts
// operations that did not succeed; `correct` is false when an output check
// failed on an operation that did succeed (or an accounting law broke).
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    if (problems.size() < 8) problems.push_back(what);
  }
};

// Exact sample quantile (linear interpolation between order statistics).
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

// Peak resident set of this process, MB.
double peak_rss_mb();

// One line of extra information (not a metric) on stdout.
void info(const std::string& key, const std::string& json_value);

// Request traffic for one workload: a fixed set of distinct prompts, a
// popularity distribution over them, and how the Server is configured.
// doc_qa, chat and tenants are served this way; session's prompts also
// take this form so its traced run can replay them through every layer.
struct Traffic {
  std::string name;
  const pc::TextTokenizer* tokenizer = nullptr;
  std::function<pc::Model()> build_model;  // timed as part of set-up
  std::vector<std::string> schemas;
  std::vector<std::string> prompts;    // distinct prompts
  std::vector<std::string> questions;  // uncached text of each prompt
  std::vector<double> cdf;             // cumulative popularity over prompts
  pc::GenerateOptions gen;
  pc::ServerConfig server;  // program defaults + the workload's settings
  size_t ram_cap_bytes = 0;  // store RAM cap (device + host); 0 = none
  bool disk_tier = false;
  // Distinct prompts whose replies are checked against the reference (a
  // seeded sample); 0 checks every distinct prompt served.
  size_t reference_sample = 0;
  uint64_t seed = 1;

  // Prompt index of the i-th request of the run (deterministic in seed).
  int pick(uint64_t i) const;
  std::unique_ptr<pc::SharedModuleStore> make_store(
      const std::string& spill_dir) const;
};

// Multi-turn sessions over the induction model (workload `session`).
struct SessionScript {
  std::string prompt;                    // imports every document
  std::vector<std::string> turns;        // user texts, in order
  std::vector<std::string> expected;     // planted value sequences
  std::vector<bool> after_repeat;        // turn at/after a repeated question
};

struct SessionInputs {
  std::vector<std::string> schemas;
  std::vector<SessionScript> round;  // one round = every script once
};

// Workload builders (inputs.cpp). The returned objects own the generators
// whose tokenizers the Traffic points at.
struct Inputs {
  std::shared_ptr<void> owner;
  Traffic traffic;
  std::unique_ptr<SessionInputs> session;  // set for `session` only
};
Inputs make_inputs(const std::string& workload, uint64_t seed);

// End-to-end runs (serve.cpp, session.cpp) and the traced run (layers.cpp).
void run_serve(const Args& args, Traffic& t, Metrics& m, Outcome& o);
void run_session(const Args& args, Inputs& in, Metrics& m, Outcome& o);
void run_layers(const Args& args, Inputs& in, Metrics& m, Outcome& o);

// The two timed phases against one Server, sized by args.seconds and
// shared by the end-to-end run and the traced run.
struct ServePhases {
  double setup_s = 0;                 // median over the set-up repeats
  double throughput_rps = 0;          // offline phase
  std::vector<double> tpot_ms;  // offline phase
  std::vector<double> ttft_ms, latency_ms, closed_tpot_ms;  // closed loop
  std::vector<double> server_ttft_ms;  // the Server's own ttft_ms
  std::vector<pc::ServerResponse> closed_responses;
  pc::ServerStats stats;
  pc::DiskTierStats disk;
  size_t store_peak_resident = 0;
  double peak_rss_mb = 0;  // after serving, before the extra set-ups
  uint64_t checked_replies = 0;  // replies compared with the reference
  double wall_offline_s = 0, wall_closed_s = 0, wall_reference_s = 0;
};
ServePhases serve_phases(const Args& args, Traffic& t, int setup_repeats,
                         Outcome& o);

}  // namespace perfbench
