// Workload `session`: multi-turn ChatSessions over the induction model,
// one user at a time (closed loop), each reply checked against the value
// sequence the generator planted for the asked key.
#include <algorithm>
#include <optional>
#include <sstream>

#include "bench.h"
#include "core/session.h"

namespace perfbench {

using namespace pc;

namespace {

// Set-up as a user pays it: model build, engine, schema load with eager
// encodes.
struct SessionInstance {
  std::optional<Model> model;
  std::unique_ptr<PromptCacheEngine> engine;

  double start(const Traffic& t, const SessionInputs& s) {
    const Clock::time_point t0 = Clock::now();
    model.emplace(t.build_model());
    engine = std::make_unique<PromptCacheEngine>(*model, *t.tokenizer);
    for (const std::string& schema : s.schemas) engine->load_schema(schema);
    return ms_between(t0, Clock::now()) / 1e3;
  }
};

}  // namespace

void run_session(const Args& args, Inputs& in, Metrics& m, Outcome& o) {
  const Traffic& t = in.traffic;
  const SessionInputs& s = *in.session;

  std::vector<double> setups;
  SessionInstance inst;
  setups.push_back(inst.start(t, s));

  GenerateOptions opts;
  opts.max_new_tokens = 5;
  opts.stop_tokens = {*t.tokenizer->vocab().find_piece(".")};

  // Whole rounds only, so the fault's share of failed turns is the same in
  // every run.
  std::vector<double> latency, per_token;
  uint64_t turns = 0;
  const Clock::time_point t0 = Clock::now();
  double elapsed_ms = 0;
  do {
    for (const SessionScript& sc : s.round) {
      // Raw turns: the chat template's "user :" / "assistant :" labels
      // would give the induction model a second ':' to copy from.
      ChatSession session(*inst.engine, sc.prompt, /*wrap_turns=*/false);
      for (size_t i = 0; i < sc.turns.size(); ++i) {
        const Clock::time_point a = Clock::now();
        const ChatSession::TurnResult r = session.send(sc.turns[i], opts);
        const double ms = ms_between(a, Clock::now());
        latency.push_back(ms);
        per_token.push_back(ms / static_cast<double>(
                                     std::max<size_t>(1, r.tokens.size())));
        ++turns;
        if (r.text != sc.expected[i]) {
          ++o.failed;
          // Only the named fault may break a turn: one at or after a
          // repeated question in its session.
          o.check(sc.after_repeat[i],
                  "turn '" + sc.turns[i] + "' replied '" + r.text +
                      "', expected '" + sc.expected[i] + "'");
        }
      }
    }
    elapsed_ms = ms_between(t0, Clock::now());
  } while (elapsed_ms < args.seconds * 1e3);
  o.attempted += turns;
  inst.engine.reset();
  inst.model.reset();
  const double rss = peak_rss_mb();  // before the extra set-ups below
  for (int k = 1; k < 5; ++k) {
    SessionInstance again;
    setups.push_back(again.start(t, s));
  }

  // ChatSession::send is blocking and returns the whole reply, so the
  // caller's first token arrives with its last: TTFT is the turn latency.
  // The per-token cost (latency / reply tokens) is printed as TPOT.
  m.add("setup_s", median(setups), "s");
  m.add("ttft_p50_ms", quantile(latency, 0.50), "ms");
  m.add("latency_p50_ms", quantile(latency, 0.50), "ms");
  m.add("throughput_rps", static_cast<double>(turns) / (elapsed_ms / 1e3),
        "1/s");
  m.add("peak_rss_mb", rss, "MB");
  std::ostringstream os;
  os << "{\"turns\": " << turns
     << ", \"tpot_p50_ms\": " << quantile(per_token, 0.50)
     << ", \"latency_p90_ms\": " << quantile(latency, 0.90)
     << ", \"latency_p99_ms\": " << quantile(latency, 0.99)
     << ", \"failed_turns\": " << o.failed << "}";
  info("session", os.str());
}

}  // namespace perfbench
