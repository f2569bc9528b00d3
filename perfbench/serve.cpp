// Server-driven workloads (doc_qa, chat, tenants): set-up, an offline
// phase of back-to-back submissions, a closed-loop phase of one request
// at a time, then output checks against a one-pass blocked-mask prefill.
#include <algorithm>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>

#include "bench.h"
#include "common/rng.h"

namespace perfbench {

using namespace pc;

namespace {

// Share of --seconds given to the offline phase; the closed-loop phase
// gets the rest.
constexpr double kOfflineShare = 0.3;
// Clock slack for comparing the Server's own TTFT with the outside clock's.
constexpr double kClockSlackMs = 0.05;
// Offline throughput is the median rate over consecutive runs of this
// many completions, so a short stall of the machine moves one run's rate,
// not the figure.
constexpr size_t kThroughputChunk = 25;

struct Sent {
  uint64_t id = 0;
  int prompt = 0;
  Clock::time_point start;  // just before submit
  bool closed_loop = false;
};

// Completion times, stamped by ServerConfig::on_record (called under the
// server's lock, so it only records).
struct CompletionLog {
  std::mutex mutex;
  std::map<uint64_t, Clock::time_point> done;
};

// Set-up as a user pays it: model build, store, Server start (schema
// load, eager encodes, workers ready).
struct Instance {
  std::optional<Model> model;
  std::unique_ptr<SharedModuleStore> store;
  std::unique_ptr<Server> server;

  double start(const Traffic& t, const std::string& spill_dir) {
    const Clock::time_point t0 = Clock::now();
    model.emplace(t.build_model());
    store = t.make_store(spill_dir);
    server = std::make_unique<Server>(*model, *t.tokenizer, *store, t.server);
    return ms_between(t0, Clock::now()) / 1e3;
  }
};

// Median completions per second over consecutive chunks of
// kThroughputChunk completions; the first chunk (ramp-up) and the last
// (drain) are left out when there are enough.
double chunked_throughput(Clock::time_point start,
                          std::vector<Clock::time_point> done) {
  std::sort(done.begin(), done.end());
  const size_t n = done.size() / kThroughputChunk;
  if (n < 4) {
    return static_cast<double>(done.size()) /
           (ms_between(start, done.back()) / 1e3);
  }
  std::vector<double> rates;
  for (size_t c = 1; c + 1 < n; ++c) {
    const Clock::time_point a = done[c * kThroughputChunk - 1];
    const Clock::time_point b = done[(c + 1) * kThroughputChunk - 1];
    rates.push_back(static_cast<double>(kThroughputChunk) /
                    (ms_between(a, b) / 1e3));
  }
  return median(rates);
}

}  // namespace

ServePhases serve_phases(const Args& args, Traffic& t, int setup_repeats,
                         Outcome& o) {
  const double seconds = args.seconds;
  ServePhases r;
  CompletionLog log;
  t.server.on_record = [&log](const ServerResponse& resp) {
    const Clock::time_point now = Clock::now();
    std::lock_guard lock(log.mutex);
    log.done[resp.id] = now;
  };
  const std::string spill_dir = args.tmpdir + "/spill";
  std::filesystem::create_directories(spill_dir);

  std::vector<double> setups;
  Instance inst;
  setups.push_back(inst.start(t, spill_dir));
  Server& server = *inst.server;

  std::vector<Sent> sent;
  uint64_t next = 0;

  // Offline phase: back to back (submit blocks while the queue is full).
  const Clock::time_point off0 = Clock::now();
  const double off_ms = seconds * kOfflineShare * 1e3;
  while (ms_between(off0, Clock::now()) < off_ms) {
    const int p = t.pick(next++);
    const uint64_t id = server.submit(t.prompts[static_cast<size_t>(p)], t.gen);
    sent.push_back({id, p, Clock::now(), false});
  }
  std::vector<ServerResponse> responses = server.drain();
  {
    std::vector<Clock::time_point> done;
    std::lock_guard lock(log.mutex);
    for (const ServerResponse& resp : responses) {
      done.push_back(log.done.at(resp.id));
    }
    r.throughput_rps = chunked_throughput(off0, std::move(done));
  }
  // Time per output token at full occupancy (every lane busy).
  for (const ServerResponse& resp : responses) {
    if (resp.status == ServeStatus::kOk && resp.result.tokens.size() > 1) {
      r.tpot_ms.push_back(resp.result.decode_ms /
                          static_cast<double>(resp.result.tokens.size() - 1));
    }
  }

  // Closed-loop phase: one request in flight at a time, each timed from
  // just before its submit to its completion. Latency and TTFT are then
  // the program's own service time: with several requests in flight, a
  // shared host's passing slowdowns compound into queueing, and the
  // medians of identical runs disagreed by half.
  const Clock::time_point closed0 = Clock::now();
  const double closed_ms = seconds * (1.0 - kOfflineShare) * 1e3;
  std::vector<ServerResponse> closed;
  while (ms_between(closed0, Clock::now()) < closed_ms) {
    const int p = t.pick(next++);
    const Clock::time_point start = Clock::now();
    const uint64_t id = server.submit(t.prompts[static_cast<size_t>(p)], t.gen);
    sent.push_back({id, p, start, true});
    for (ServerResponse& resp : server.drain()) {
      closed.push_back(std::move(resp));
    }
  }
  const Clock::time_point ref0 = Clock::now();
  responses.insert(responses.end(), closed.begin(), closed.end());
  r.stats = server.stats();

  std::map<uint64_t, const Sent*> by_id;
  for (const Sent& s : sent) by_id[s.id] = &s;
  o.check(responses.size() == sent.size(), "drain returned every request");
  o.check(r.stats.submitted == sent.size(), "submitted == requests sent");
  o.check(r.stats.completed + r.stats.shed + r.stats.timeouts +
                  r.stats.failed ==
              r.stats.submitted,
          "completed + shed + timeouts + failed == submitted");

  // Reference: a one-pass blocked-mask prefill of every distinct prompt
  // served (or of a seeded sample of them), on a separate engine, outside
  // the timed window.
  std::vector<int> checked;
  {
    std::set<int> used;
    for (const Sent& s : sent) used.insert(s.prompt);
    checked.assign(used.begin(), used.end());
    if (t.reference_sample > 0 && checked.size() > t.reference_sample) {
      Rng pick(t.seed ^ 0x5a3b1eULL);
      pick.shuffle(checked);
      checked.resize(t.reference_sample);
    }
  }
  std::map<int, std::vector<TokenId>> reference;
  {
    EngineConfig cfg;
    cfg.eager_encode = false;  // serve_full_prefill never reads the store
    PromptCacheEngine ref(*inst.model, *t.tokenizer, cfg);
    for (const std::string& schema : t.schemas) ref.load_schema(schema);
    for (int p : checked) {
      reference[p] =
          ref.serve_full_prefill(t.prompts[static_cast<size_t>(p)], t.gen)
              .tokens;
    }
  }
  r.wall_offline_s = ms_between(off0, closed0) / 1e3;
  r.wall_closed_s = ms_between(closed0, ref0) / 1e3;
  r.wall_reference_s = ms_between(ref0, Clock::now()) / 1e3;

  const size_t want = static_cast<size_t>(t.gen.max_new_tokens);
  for (const ServerResponse& resp : responses) {
    const auto it = by_id.find(resp.id);
    if (it == by_id.end()) {
      o.check(false, "response for an unknown id");
      continue;
    }
    const Sent& s = *it->second;
    if (resp.status != ServeStatus::kOk) {
      ++o.failed;
      continue;
    }
    const std::vector<TokenId>& toks = resp.result.tokens;
    o.check(toks.size() == want, "reply has exactly max_new_tokens tokens");
    const auto ref = reference.find(s.prompt);
    if (ref != reference.end()) {
      ++r.checked_replies;
      o.check(toks == ref->second,
              "tokens equal the blocked-mask prefill reference (prompt " +
                  std::to_string(s.prompt) + ")");
    }
    if (!s.closed_loop) continue;
    const double latency = ms_between(s.start, log.done.at(resp.id));
    // decode_ms comes from the Server's clock, latency from ours: decode
    // must fit inside the request's latency.
    const double ttft = latency - resp.result.decode_ms;
    o.check(ttft > 0, "decode_ms < latency");
    // The Server's ttft_ms spans submit (after our start) to the first
    // token, so it cannot exceed the outside-clock TTFT.
    o.check(resp.ttft_ms <= ttft + kClockSlackMs,
            "server ttft_ms <= outside-clock ttft");
    r.latency_ms.push_back(latency);
    r.ttft_ms.push_back(ttft);
    r.server_ttft_ms.push_back(resp.ttft_ms);
    if (toks.size() > 1) {
      r.closed_tpot_ms.push_back(resp.result.decode_ms /
                               static_cast<double>(toks.size() - 1));
    }
  }
  r.closed_responses = std::move(closed);
  o.attempted += sent.size();

  // Tear down in order; the store's disk counters are quiescent once the
  // server (workers, batch loop, prefetcher) has joined.
  inst.server.reset();
  r.disk = inst.store->disk_stats();
  r.store_peak_resident = inst.store->peak_resident_bytes();
  if (inst.store->disk_enabled()) {
    o.check(r.disk.spills == r.disk.faults + r.disk.evictions +
                                 r.disk.read_failures +
                                 static_cast<uint64_t>(r.disk.spilled),
            "spills == faults + evictions + read_failures + spilled");
  }
  inst.store.reset();
  inst.model.reset();
  t.server.on_record = nullptr;  // `log` dies with this frame
  // Peak memory of serving, read before the extra set-ups below.
  r.peak_rss_mb = peak_rss_mb();

  for (int k = 1; k < setup_repeats; ++k) {
    Instance again;
    setups.push_back(again.start(t, spill_dir));
  }
  r.setup_s = median(setups);
  return r;
}

void run_serve(const Args& args, Traffic& t, Metrics& m, Outcome& o) {
  // Tails and TPOT are printed, not gated (README: "Printed, not gated").
  const ServePhases r = serve_phases(args, t, /*setup_repeats=*/3, o);
  m.add("setup_s", r.setup_s, "s");
  m.add("ttft_p50_ms", quantile(r.ttft_ms, 0.50), "ms");
  m.add("latency_p50_ms", quantile(r.latency_ms, 0.50), "ms");
  m.add("throughput_rps", r.throughput_rps, "1/s");
  m.add("peak_rss_mb", r.peak_rss_mb, "MB");

  std::vector<double> gap;  // outside-clock TTFT minus the Server's ttft_ms
  for (size_t i = 0; i < r.ttft_ms.size(); ++i) {
    gap.push_back(r.ttft_ms[i] - r.server_ttft_ms[i]);
  }
  std::ostringstream os;
  os << "{\"closed_samples\": " << r.ttft_ms.size()
     << ", \"tpot_p50_ms\": " << quantile(r.closed_tpot_ms, 0.5)
     << ", \"offline_tpot_p50_ms\": " << quantile(r.tpot_ms, 0.5)
     << ", \"ttft_p90_ms\": " << quantile(r.ttft_ms, 0.90)
     << ", \"ttft_p99_ms\": " << quantile(r.ttft_ms, 0.99)
     << ", \"latency_p90_ms\": " << quantile(r.latency_ms, 0.90)
     << ", \"latency_p99_ms\": " << quantile(r.latency_ms, 0.99)
     << ", \"server_ttft_p50_ms\": " << quantile(r.server_ttft_ms, 0.5)
     << ", \"server_ttft_p99_ms\": " << quantile(r.server_ttft_ms, 0.99)
     << ", \"ttft_minus_server_ttft_min_ms\": " << quantile(gap, 0.0)
     << ", \"ttft_minus_server_ttft_p50_ms\": " << quantile(gap, 0.5)
     << ", \"ttft_minus_server_ttft_p99_ms\": " << quantile(gap, 0.99)
     << ", \"checked_replies\": " << r.checked_replies
     << ", \"wall_offline_s\": " << r.wall_offline_s
     << ", \"wall_closed_s\": " << r.wall_closed_s
     << ", \"wall_reference_s\": " << r.wall_reference_s
     << ", \"disk_faults\": " << r.disk.faults
     << ", \"disk_spills\": " << r.disk.spills << "}";
  info("serve", os.str());
}

}  // namespace perfbench
