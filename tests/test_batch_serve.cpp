// Continuous-batching serve path (sys/batch.h + Server batching mode):
//
//   * forward_batch over paged caches is bitwise-identical to forward()
//     over dense caches, chunked or not, solo or batched;
//   * the batching Server produces bitwise-identical tokens to sequential
//     PromptCacheEngine::serve at every batch width (greedy and sampled);
//   * requests sharing modules share paged KV (§3.4): module renditions are
//     held once however many in-flight requests attach them, and the peak
//     footprint beats the private-modules baseline; partial module tails
//     are attached copy-on-write; a rendition no request holds is released
//     (an idle scheduler holds no pages) and rebuilt bitwise on reuse;
//   * deadline semantics in batch mode: expiry while queued sheds at
//     dequeue, expiry mid-service cancels to kTimeout;
//   * submit-time shedding counts in-service requests, not just the queue
//     (the regression that admitted doomed requests under full load), and
//     drain() returns when everything behind the blocker was shed;
//   * submit racing stop(): every id that submit() returned is recorded
//     with exactly one status;
//   * chaos (PC_FAULTS): the batch loop under encode/link/evict/stall
//     faults keeps availability 1.0 with bitwise-equal tokens.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/shared_module_store.h"
#include "eval/workload.h"
#include "kv/paged_cache.h"
#include "kv/paged_pool.h"
#include "model/induction.h"
#include "obs/metrics.h"
#include "sys/batch.h"
#include "sys/fault.h"
#include "sys/server.h"

namespace pc {
namespace {

constexpr char kSchema[] = R"(
  <schema name="bs">
    <module name="d1">w00 w01 q05 a10 a11 . w02</module>
    <module name="d2">w03 q06 a12 a13 . w04</module>
    <module name="d3">w05 w06 q07 a14 a15 . w07</module>
    <module name="d4">w08 q08 a16 a17 . w09</module>
  </schema>)";

const char* const kPrompts[] = {
    R"(<prompt schema="bs"><d1/><d2/> question: q05</prompt>)",
    R"(<prompt schema="bs"><d1/><d2/> question: q06</prompt>)",
    R"(<prompt schema="bs"><d3/><d4/> question: q07</prompt>)",
    R"(<prompt schema="bs"><d3/><d4/> question: q08</prompt>)",
    R"(<prompt schema="bs"><d1/><d2/><d3/><d4/> question: q07</prompt>)",
    R"(<prompt schema="bs"><d2/><d4/> question: q08</prompt>)",
};
constexpr size_t kNumPrompts = std::size(kPrompts);

GenerateOptions ask_options(const AccuracyWorkload& workload) {
  GenerateOptions opts;
  opts.max_new_tokens = 5;
  opts.stop_tokens = {workload.stop_token()};
  return opts;
}

class BatchServeTest : public ::testing::Test {
 protected:
  BatchServeTest()
      : workload_(7),
        model_(make_induction_model({workload_.vocab().size(), 256})) {
    FaultInjector::global().disable();
  }
  ~BatchServeTest() override { FaultInjector::global().disable(); }

  // Sequential ground truth: a fresh engine serving one request at a time.
  std::vector<std::vector<TokenId>> reference_tokens(
      const std::vector<std::string>& prompts,
      const std::vector<GenerateOptions>& options) {
    PromptCacheEngine reference(model_, workload_.tokenizer());
    reference.load_schema(kSchema);
    std::vector<std::vector<TokenId>> expected;
    for (size_t i = 0; i < prompts.size(); ++i) {
      expected.push_back(reference.serve(prompts[i], options[i]).tokens);
    }
    return expected;
  }

  AccuracyWorkload workload_;
  Model model_;
};

void check_status_invariants(const ServerResponse& r) {
  if (is_served(r.status)) {
    EXPECT_TRUE(r.deadline_met) << "id " << r.id << ": " << r.detail;
  }
  if (r.status == ServeStatus::kTimeout || r.status == ServeStatus::kShed) {
    EXPECT_FALSE(r.deadline_met) << "id " << r.id;
    EXPECT_TRUE(r.result.tokens.empty()) << "id " << r.id;
  }
}

void check_accounting(const ServerStats& s) {
  EXPECT_EQ(s.completed + s.shed + s.timeouts + s.failed, s.submitted);
  EXPECT_LE(s.degraded, s.completed);
}

// ---------------------------------------------------------------------------
// forward_batch: the kernel-level bitwise contract

TEST_F(BatchServeTest, ForwardBatchMatchesForwardBitwise) {
  const auto tokens = workload_.tokenizer().encode(
      "w00 w01 q05 a10 a11 . w02 w03 q06 a12 a13 . w04");
  const int n = static_cast<int>(tokens.size());
  ASSERT_GE(n, 8);
  std::vector<int> pos(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) pos[static_cast<size_t>(i)] = i;

  KVCache dense = model_.make_cache();
  const Tensor ref = model_.forward(tokens, pos, dense);
  ASSERT_EQ(ref.dim(0), 1);

  const int n_layers = model_.config().n_layers;
  const int kv_dim = model_.config().kv_dim();
  // Small pages so the sequence spans several.
  PagedKVPool pool(4, model_.kv_bytes_per_token());

  // Whole sequence in one batched call.
  {
    PagedKVCache cache(pool, n_layers, kv_dim);
    Model::BatchSeq seq{tokens, pos, &cache};
    const Tensor out = model_.forward_batch({&seq, 1});
    ASSERT_EQ(out.dim(0), 1);
    ASSERT_EQ(out.dim(1), ref.dim(1));
    EXPECT_EQ(std::memcmp(out.data(), ref.data(),
                          static_cast<size_t>(ref.dim(1)) * sizeof(float)),
              0);
  }

  // Chunked prefill: same cache fed 5 tokens at a time; the last chunk's
  // logits must still match the one-shot dense run bitwise.
  {
    PagedKVCache cache(pool, n_layers, kv_dim);
    Tensor out;
    for (int at = 0; at < n; at += 5) {
      const int len = std::min(5, n - at);
      Model::BatchSeq seq{
          std::span<const TokenId>(tokens.data() + at,
                                   static_cast<size_t>(len)),
          std::span<const int>(pos.data() + at, static_cast<size_t>(len)),
          &cache};
      out = model_.forward_batch({&seq, 1});
    }
    EXPECT_EQ(std::memcmp(out.data(), ref.data(),
                          static_cast<size_t>(ref.dim(1)) * sizeof(float)),
              0);
  }

  // Two sequences of different lengths stepped together: each row matches
  // its solo dense run.
  {
    const int n2 = n / 2;
    KVCache dense2 = model_.make_cache();
    const Tensor ref2 = model_.forward(
        std::span<const TokenId>(tokens.data(), static_cast<size_t>(n2)),
        std::span<const int>(pos.data(), static_cast<size_t>(n2)), dense2);

    PagedKVCache a(pool, n_layers, kv_dim);
    PagedKVCache b(pool, n_layers, kv_dim);
    Model::BatchSeq seqs[2] = {
        {tokens, pos, &a},
        {std::span<const TokenId>(tokens.data(), static_cast<size_t>(n2)),
         std::span<const int>(pos.data(), static_cast<size_t>(n2)), &b}};
    const Tensor out = model_.forward_batch(seqs);
    ASSERT_EQ(out.dim(0), 2);
    const size_t row_bytes = static_cast<size_t>(ref.dim(1)) * sizeof(float);
    EXPECT_EQ(std::memcmp(out.data(), ref.data(), row_bytes), 0);
    EXPECT_EQ(std::memcmp(out.data() + out.dim(1), ref2.data(), row_bytes),
              0);
  }
}

// ---------------------------------------------------------------------------
// Batched serving == sequential serving, bitwise

TEST_F(BatchServeTest, BatchedMatchesSequentialBitwise) {
  constexpr int kRequests = 12;
  std::vector<std::string> prompts;
  std::vector<GenerateOptions> options;
  for (int i = 0; i < kRequests; ++i) {
    prompts.push_back(kPrompts[static_cast<size_t>(i) % kNumPrompts]);
    options.push_back(ask_options(workload_));
  }
  const auto expected = reference_tokens(prompts, options);

  for (int max_batch : {1, 2, 4, 8}) {
    ServerConfig cfg;
    cfg.batching = true;
    cfg.batch.max_batch = max_batch;
    cfg.schemas = {kSchema};
    Server server(model_, workload_.tokenizer(), cfg);
    for (int i = 0; i < kRequests; ++i) {
      server.submit(prompts[static_cast<size_t>(i)],
                    options[static_cast<size_t>(i)]);
    }
    const auto responses = server.drain();

    ASSERT_EQ(responses.size(), static_cast<size_t>(kRequests));
    for (int i = 0; i < kRequests; ++i) {
      const ServerResponse& r = responses[static_cast<size_t>(i)];
      EXPECT_EQ(r.status, ServeStatus::kOk)
          << "batch " << max_batch << " id " << r.id << ": " << r.detail;
      EXPECT_EQ(r.result.tokens, expected[static_cast<size_t>(i)])
          << "batch " << max_batch << " id " << r.id;
      check_status_invariants(r);
    }

    const ServerStats stats = server.stats();
    EXPECT_TRUE(stats.batching);
    EXPECT_EQ(stats.completed, static_cast<uint64_t>(kRequests));
    EXPECT_GT(stats.batch_iterations, 0u);
    EXPECT_GT(stats.batch_tokens, 0u);
    check_accounting(stats);
  }
}

TEST_F(BatchServeTest, Q8BatchedMatchesSequentialQ8Bitwise) {
  // Quantized module pages: shared renditions stay int8 in the paged pool
  // and decode tails stay fp32. Tokens must be bitwise-identical to a
  // sequential q8 engine, and — the retrieval gate — identical to the fp32
  // sequential reference (induction retrieval survives Q8_0).
  constexpr int kRequests = 12;
  std::vector<std::string> prompts;
  std::vector<GenerateOptions> options;
  for (int i = 0; i < kRequests; ++i) {
    prompts.push_back(kPrompts[static_cast<size_t>(i) % kNumPrompts]);
    options.push_back(ask_options(workload_));
  }
  const auto fp32_expected = reference_tokens(prompts, options);

  EngineConfig q8_cfg;
  q8_cfg.precision = StorePrecision::kQ8;
  PromptCacheEngine sequential(model_, workload_.tokenizer(), q8_cfg);
  sequential.load_schema(kSchema);
  std::vector<std::vector<TokenId>> q8_expected;
  for (int i = 0; i < kRequests; ++i) {
    q8_expected.push_back(
        sequential.serve(prompts[static_cast<size_t>(i)],
                         options[static_cast<size_t>(i)]).tokens);
  }

  for (int max_batch : {1, 4}) {
    ServerConfig cfg;
    cfg.batching = true;
    cfg.batch.max_batch = max_batch;
    cfg.engine.precision = StorePrecision::kQ8;
    cfg.schemas = {kSchema};
    Server server(model_, workload_.tokenizer(), cfg);
    for (int i = 0; i < kRequests; ++i) {
      server.submit(prompts[static_cast<size_t>(i)],
                    options[static_cast<size_t>(i)]);
    }
    const auto responses = server.drain();
    ASSERT_EQ(responses.size(), static_cast<size_t>(kRequests));
    for (int i = 0; i < kRequests; ++i) {
      const ServerResponse& r = responses[static_cast<size_t>(i)];
      EXPECT_EQ(r.status, ServeStatus::kOk)
          << "batch " << max_batch << " id " << r.id << ": " << r.detail;
      EXPECT_EQ(r.result.tokens, q8_expected[static_cast<size_t>(i)])
          << "batch " << max_batch << " id " << r.id;
      EXPECT_EQ(r.result.tokens, fp32_expected[static_cast<size_t>(i)])
          << "q8 retrieval must stay exact; batch " << max_batch;
    }
  }
}

TEST_F(BatchServeTest, Q4BatchedMatchesSequentialQ4Bitwise) {
  // Sub-byte module pages: shared renditions stay packed Q4_0 nibbles in
  // the paged pool and decode tails stay fp32. Tokens must be bitwise-
  // identical to a sequential q4 engine, and — the retrieval gate —
  // identical to the fp32 sequential reference (induction retrieval
  // survives Q4_0).
  constexpr int kRequests = 12;
  std::vector<std::string> prompts;
  std::vector<GenerateOptions> options;
  for (int i = 0; i < kRequests; ++i) {
    prompts.push_back(kPrompts[static_cast<size_t>(i) % kNumPrompts]);
    options.push_back(ask_options(workload_));
  }
  const auto fp32_expected = reference_tokens(prompts, options);

  EngineConfig q4_cfg;
  q4_cfg.precision = StorePrecision::kQ4;
  PromptCacheEngine sequential(model_, workload_.tokenizer(), q4_cfg);
  sequential.load_schema(kSchema);
  std::vector<std::vector<TokenId>> q4_expected;
  for (int i = 0; i < kRequests; ++i) {
    q4_expected.push_back(
        sequential.serve(prompts[static_cast<size_t>(i)],
                         options[static_cast<size_t>(i)]).tokens);
  }

  for (int max_batch : {1, 4}) {
    ServerConfig cfg;
    cfg.batching = true;
    cfg.batch.max_batch = max_batch;
    cfg.engine.precision = StorePrecision::kQ4;
    cfg.schemas = {kSchema};
    Server server(model_, workload_.tokenizer(), cfg);
    for (int i = 0; i < kRequests; ++i) {
      server.submit(prompts[static_cast<size_t>(i)],
                    options[static_cast<size_t>(i)]);
    }
    const auto responses = server.drain();
    ASSERT_EQ(responses.size(), static_cast<size_t>(kRequests));
    for (int i = 0; i < kRequests; ++i) {
      const ServerResponse& r = responses[static_cast<size_t>(i)];
      EXPECT_EQ(r.status, ServeStatus::kOk)
          << "batch " << max_batch << " id " << r.id << ": " << r.detail;
      EXPECT_EQ(r.result.tokens, q4_expected[static_cast<size_t>(i)])
          << "batch " << max_batch << " id " << r.id;
      EXPECT_EQ(r.result.tokens, fp32_expected[static_cast<size_t>(i)])
          << "q4 retrieval must stay exact; batch " << max_batch;
    }
  }
}

TEST_F(BatchServeTest, BatchedSamplingMatchesSequentialBitwise) {
  // Seeded stochastic decoding: the per-request Rng must advance exactly as
  // in generate_impl, whatever else is in the batch.
  constexpr int kRequests = 8;
  std::vector<std::string> prompts;
  std::vector<GenerateOptions> options;
  for (int i = 0; i < kRequests; ++i) {
    prompts.push_back(kPrompts[static_cast<size_t>(i) % kNumPrompts]);
    GenerateOptions o = ask_options(workload_);
    o.temperature = 0.8f;
    o.top_k = 3;
    o.seed = 1000 + static_cast<uint64_t>(i);
    options.push_back(o);
  }
  const auto expected = reference_tokens(prompts, options);

  ServerConfig cfg;
  cfg.batching = true;
  cfg.batch.max_batch = 4;
  cfg.schemas = {kSchema};
  Server server(model_, workload_.tokenizer(), cfg);
  for (int i = 0; i < kRequests; ++i) {
    server.submit(prompts[static_cast<size_t>(i)],
                  options[static_cast<size_t>(i)]);
  }
  const auto responses = server.drain();

  ASSERT_EQ(responses.size(), static_cast<size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(responses[static_cast<size_t>(i)].status, ServeStatus::kOk);
    EXPECT_EQ(responses[static_cast<size_t>(i)].result.tokens,
              expected[static_cast<size_t>(i)])
        << "id " << i;
  }
}

TEST_F(BatchServeTest, BatchedSharedStoreMatchesSequential) {
  constexpr int kRequests = 8;
  std::vector<std::string> prompts;
  std::vector<GenerateOptions> options;
  for (int i = 0; i < kRequests; ++i) {
    prompts.push_back(kPrompts[static_cast<size_t>(i) % kNumPrompts]);
    options.push_back(ask_options(workload_));
  }
  const auto expected = reference_tokens(prompts, options);

  SharedModuleStore store(/*device=*/0, /*host=*/0);
  ServerConfig cfg;
  cfg.batching = true;
  cfg.batch.max_batch = 4;
  cfg.schemas = {kSchema};
  Server server(model_, workload_.tokenizer(), store, cfg);
  for (int i = 0; i < kRequests; ++i) {
    server.submit(prompts[static_cast<size_t>(i)],
                  options[static_cast<size_t>(i)]);
  }
  const auto responses = server.drain();

  ASSERT_EQ(responses.size(), static_cast<size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(responses[static_cast<size_t>(i)].result.tokens,
              expected[static_cast<size_t>(i)])
        << "id " << i;
  }
  const ServerStats stats = server.stats();
  EXPECT_TRUE(stats.shared_store);
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kRequests));
  check_accounting(stats);
}

// ---------------------------------------------------------------------------
// §3.4 paged sharing: footprint accounting

// 20-token modules (page_tokens = 16): each rendition spans one full page
// (shared by reference) plus a 4-token tail (attached copy-on-write).
std::string footprint_schema() {
  std::string s = "<schema name=\"fp\">";
  for (int i = 0; i < 8; ++i) {
    s += "<module name=\"m" + std::to_string(i) + "\">";
    s += "w00 w01 w02 w03 w04 w05 w06 w07 ";
    s += "q1" + std::to_string(i) + " ";
    s += "a" + std::to_string(20 + 2 * i) + " a" + std::to_string(21 + 2 * i);
    s += " . w08 w09 w10 w11 w12 w13 w14 w15";
    s += "</module>";
  }
  s += "</schema>";
  return s;
}

std::string footprint_prompt(int module) {
  const std::string m = std::to_string(module);
  return "<prompt schema=\"fp\"><m" + m + "/> question: q1" + m +
         "</prompt>";
}

// The scheduler's own pc_batch_kv_module_bytes cell: gauges sum over live
// cells, and each test holds at most one scheduler.
int64_t module_gauge() {
  for (const auto& f : obs::MetricsRegistry::global().collect()) {
    if (f.name == "pc_batch_kv_module_bytes") return f.gauge_value;
  }
  return -1;
}

// A BatchScheduler driven directly on the test thread, so the test decides
// exactly which requests are in flight together.
class DirectScheduler {
 public:
  DirectScheduler(const Model& model, const TextTokenizer& tokenizer,
                  BatchScheduler::Options options)
      : sched_(model, tokenizer, nullptr, std::move(options),
               [this](ServerResponse&& r) { done_.push_back(std::move(r)); }) {}

  BatchScheduler& sched() { return sched_; }

  void admit(const std::string& prompt, const GenerateOptions& options) {
    BatchScheduler::Request req;
    req.id = next_id_++;
    req.prompt = prompt;
    req.options = options;
    req.enqueued = std::chrono::steady_clock::now();
    sched_.admit(std::move(req));
  }

  // Steps until idle; returns the completions since the last call, in
  // admission order.
  std::vector<ServerResponse> run_until_idle() {
    while (sched_.step()) {
    }
    std::vector<ServerResponse> out = std::move(done_);
    done_.clear();
    std::sort(out.begin(), out.end(),
              [](const ServerResponse& a, const ServerResponse& b) {
                return a.id < b.id;
              });
    return out;
  }

  // Admits the prompts in order, each as soon as a slot is free, then
  // steps until idle.
  std::vector<ServerResponse> serve(const std::vector<std::string>& prompts,
                                    const GenerateOptions& options) {
    for (const std::string& p : prompts) {
      while (!sched_.has_capacity()) sched_.step();
      admit(p, options);
    }
    return run_until_idle();
  }

 private:
  std::vector<ServerResponse> done_;  // declared first: outlives sched_
  BatchScheduler sched_;
  uint64_t next_id_ = 0;
};

TEST_F(BatchServeTest, SharedModulesReduceKvFootprint) {
  const std::string schema = footprint_schema();
  constexpr int kRequests = 8;

  auto run = [&](bool shared_traffic) {
    BatchScheduler::Options opts;
    opts.batch.max_batch = kRequests;
    // COW-tail accounting is fp32-specific: quantized module tails are
    // attached read-only, never copied on write. Pin fp32 here; the
    // quantized paged paths are covered by the Q8/Q4 bitwise tests.
    opts.engine.precision = StorePrecision::kFp32;
    opts.schemas = {schema};
    DirectScheduler direct(model_, workload_.tokenizer(), opts);
    // Every request is admitted before the first step, so all eight are in
    // flight at once. Shared traffic: every request imports the same
    // module. Private traffic: each request imports its own.
    for (int i = 0; i < kRequests; ++i) {
      direct.admit(footprint_prompt(shared_traffic ? 0 : i),
                   ask_options(workload_));
    }
    EXPECT_EQ(direct.sched().active_requests(), kRequests);
    // The gauge reads the renditions held right now.
    EXPECT_GT(module_gauge(), 0);
    const auto responses = direct.run_until_idle();
    EXPECT_EQ(responses.size(), static_cast<size_t>(kRequests));
    for (const auto& r : responses) {
      EXPECT_EQ(r.status, ServeStatus::kOk) << r.detail;
      EXPECT_FALSE(r.result.tokens.empty());
    }
    // Idle: every request's pages and every module rendition are released.
    EXPECT_TRUE(direct.sched().idle());
    EXPECT_EQ(direct.sched().pool().live_bytes(), 0u);
    EXPECT_EQ(module_gauge(), 0);
    return direct.sched().kv_stats();
  };

  const BatchKVStats shared = run(/*shared_traffic=*/true);
  const BatchKVStats priv = run(/*shared_traffic=*/false);

  // Module renditions are held once per distinct module in flight, not per
  // request.
  EXPECT_GT(shared.module_bytes, 0u);
  EXPECT_EQ(priv.module_bytes, 8 * shared.module_bytes);

  // Sharing shows up as a strictly smaller peak resident KV footprint for
  // the same request count — the paper's batch-memory claim, measured.
  EXPECT_GT(shared.peak_live_bytes, 0u);
  EXPECT_LT(shared.peak_live_bytes, priv.peak_live_bytes);

  // Every request attaches its module's 4-token tail copy-on-write.
  EXPECT_GE(shared.cow_copies, static_cast<uint64_t>(kRequests));
  EXPECT_GE(priv.cow_copies, static_cast<uint64_t>(kRequests));
}

// A rendition an active request still holds is attached by reference, not
// rendered again, even after the request that rendered it has completed.
TEST_F(BatchServeTest, HeldRenditionsStayShared) {
  BatchScheduler::Options opts;
  opts.schemas = {footprint_schema()};
  DirectScheduler direct(model_, workload_.tokenizer(), opts);
  GenerateOptions one_token = ask_options(workload_);
  one_token.max_new_tokens = 1;
  direct.admit(footprint_prompt(0), one_token);               // renders m0
  direct.admit(footprint_prompt(0), ask_options(workload_));  // attaches it
  // Both prefill in one iteration; the first finishes on its first token.
  direct.sched().step();
  ASSERT_EQ(direct.sched().active_requests(), 1);
  direct.admit(footprint_prompt(0), ask_options(workload_));

  const auto responses = direct.run_until_idle();
  ASSERT_EQ(responses.size(), 3u);
  for (const auto& r : responses) {
    EXPECT_EQ(r.status, ServeStatus::kOk) << r.detail;
  }
  EXPECT_EQ(responses[0].result.ttft.bytes_zero_copy, 0u);
  for (size_t i = 1; i < responses.size(); ++i) {
    const TtftBreakdown& ttft = responses[i].result.ttft;
    EXPECT_GT(ttft.bytes_zero_copy, 0u) << "request " << i;
    EXPECT_EQ(ttft.bytes_from_host + ttft.bytes_from_device, 0u)
        << "request " << i;
  }
  EXPECT_EQ(responses[1].result.tokens, responses[2].result.tokens);
  EXPECT_EQ(direct.sched().pool().live_bytes(), 0u);
}

// A module rendition lives only while a request holds it: once more distinct
// modules than max_batch have streamed through, the first module's pages
// are gone, and serving it again renders it afresh from the store — with
// tokens bitwise-equal to the first serve and to sequential serving. Runs
// at the process default precision, so the PC_KV_FORMAT=q8/q4 legs
// re-render quantized renditions.
TEST_F(BatchServeTest, ModuleRenditionsAreRebuiltBitwise) {
  const std::string schema = footprint_schema();
  constexpr int kMaxBatch = 2;
  const GenerateOptions options = ask_options(workload_);
  const std::string prompt_a = footprint_prompt(0);

  PromptCacheEngine sequential(model_, workload_.tokenizer());
  sequential.load_schema(schema);
  const std::vector<TokenId> expected = sequential.serve(prompt_a, options).tokens;
  ASSERT_FALSE(expected.empty());

  BatchScheduler::Options opts;
  opts.batch.max_batch = kMaxBatch;
  opts.schemas = {schema};
  DirectScheduler direct(model_, workload_.tokenizer(), opts);

  const auto first = direct.serve({prompt_a}, options);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].status, ServeStatus::kOk) << first[0].detail;
  // One module's rendition, held while A was in flight, released after.
  const size_t one_module = direct.sched().kv_stats().module_bytes;
  EXPECT_GT(one_module, 0u);
  EXPECT_EQ(direct.sched().pool().live_bytes(), 0u);

  // Seven more distinct modules, at most kMaxBatch in flight.
  std::vector<std::string> others;
  for (int m = 1; m < 8; ++m) others.push_back(footprint_prompt(m));
  for (const auto& r : direct.serve(others, options)) {
    EXPECT_EQ(r.status, ServeStatus::kOk) << r.detail;
  }
  EXPECT_EQ(direct.sched().pool().live_bytes(), 0u);

  const auto second = direct.serve({prompt_a}, options);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].status, ServeStatus::kOk) << second[0].detail;
  // A's module was rendered again: its bytes moved instead of attaching a
  // rendition by reference.
  EXPECT_EQ(second[0].result.ttft.bytes_zero_copy, 0u);
  EXPECT_GT(second[0].result.ttft.bytes_from_host +
                second[0].result.ttft.bytes_from_device,
            0u);

  EXPECT_EQ(first[0].result.tokens, expected);
  EXPECT_EQ(second[0].result.tokens, expected);

  // The module high-water is one batch's modules, not every module served.
  EXPECT_LE(direct.sched().kv_stats().module_bytes, kMaxBatch * one_module);
  EXPECT_EQ(direct.sched().pool().live_bytes(), 0u);
  EXPECT_EQ(module_gauge(), 0);
}

// ---------------------------------------------------------------------------
// Deadlines in batch mode

TEST_F(BatchServeTest, BatchDeadlineExpiryWhileQueuedSheds) {
  ServerConfig cfg;
  cfg.batching = true;
  cfg.batch.max_batch = 1;  // the second request must wait its turn
  cfg.schemas = {kSchema};
  Server server(model_, workload_.tokenizer(), cfg);

  GenerateOptions slow = ask_options(workload_);
  slow.max_new_tokens = 64;
  slow.stop_tokens.clear();
  server.submit(kPrompts[0], slow);
  server.submit(kPrompts[1], ask_options(workload_), /*deadline_ms=*/0.05);
  const auto responses = server.drain();

  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status, ServeStatus::kOk) << responses[0].detail;
  EXPECT_EQ(responses[1].status, ServeStatus::kShed) << responses[1].detail;
  EXPECT_NE(responses[1].detail.find("shed at dequeue"), std::string::npos)
      << responses[1].detail;
  check_status_invariants(responses[0]);
  check_status_invariants(responses[1]);
  check_accounting(server.stats());
}

TEST_F(BatchServeTest, BatchDeadlineExpiryMidServiceTimesOut) {
  ServerConfig cfg;
  cfg.batching = true;
  cfg.batch.max_batch = 2;
  cfg.schemas = {kSchema};
  // A 50 ms simulated host-link transfer guarantees the 10 ms deadline
  // expires after admission but before the first prefill chunk — the
  // machine-speed-independent way to hit the mid-service cancel path.
  cfg.link.latency_s = 0.05;
  Server server(model_, workload_.tokenizer(), cfg);

  server.submit(kPrompts[0], ask_options(workload_), /*deadline_ms=*/10);
  const auto responses = server.drain();

  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, ServeStatus::kTimeout)
      << responses[0].detail;
  check_status_invariants(responses[0]);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.deadline_misses, 1u);
  check_accounting(stats);
}

// ---------------------------------------------------------------------------
// Submit-time shedding counts in-service requests (the bugfix)

TEST_F(BatchServeTest, SubmitShedCountsInServiceRequests) {
  // Worker mode, one worker, 100 ms simulated link stall per request.
  ServerConfig cfg;
  cfg.n_workers = 1;
  cfg.schemas = {kSchema};
  cfg.link.latency_s = 0.1;
  Server server(model_, workload_.tokenizer(), cfg);
  const GenerateOptions opts = ask_options(workload_);

  // Prime the service-time EWMA (~100 ms).
  server.submit(kPrompts[0], opts);
  (void)server.drain();

  // Occupy the worker, give it time to dequeue — the queue is now EMPTY
  // but one request is in service. The old estimate looked only at
  // queue_.size(), predicted zero wait, and admitted the doomed requests.
  server.submit(kPrompts[1], opts);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  std::vector<uint64_t> doomed;
  for (int i = 0; i < 8; ++i) {
    doomed.push_back(
        server.submit(kPrompts[static_cast<size_t>(i) % kNumPrompts], opts,
                      /*deadline_ms=*/5));
  }
  // drain() must return even though everything behind the blocker shed.
  const auto responses = server.drain();

  ASSERT_EQ(responses.size(), 9u);
  EXPECT_EQ(responses[0].status, ServeStatus::kOk) << responses[0].detail;
  for (size_t i = 1; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].status, ServeStatus::kShed)
        << "id " << responses[i].id << ": " << responses[i].detail;
    // Shed at submit, not at dequeue: never handed to a worker.
    EXPECT_EQ(responses[i].worker, -1) << responses[i].detail;
    EXPECT_NE(responses[i].detail.find("shed at submit"), std::string::npos)
        << responses[i].detail;
    check_status_invariants(responses[i]);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed, 8u);
  EXPECT_EQ(stats.completed, 2u);  // including the EWMA-priming request
  check_accounting(stats);
}

// ---------------------------------------------------------------------------
// Shutdown race

TEST_F(BatchServeTest, SubmitRacingStopRecordsEverySubmittedId) {
  ServerConfig cfg;
  cfg.batching = true;
  cfg.batch.max_batch = 4;
  cfg.queue_capacity = 4;
  cfg.schemas = {kSchema};
  Server server(model_, workload_.tokenizer(), cfg);
  const GenerateOptions opts = ask_options(workload_);

  std::atomic<uint64_t> accepted{0};
  std::thread submitter([&] {
    for (int i = 0; i < 200; ++i) {
      try {
        server.submit(kPrompts[static_cast<size_t>(i) % kNumPrompts], opts);
        accepted.fetch_add(1);
      } catch (const Error&) {
        return;  // stopped while (or before) blocking on the full queue
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.stop();
  submitter.join();

  // Every accepted request was recorded with exactly one status.
  const auto responses = server.drain();
  EXPECT_EQ(responses.size(), accepted.load());
  for (const auto& r : responses) {
    EXPECT_TRUE(is_served(r.status)) << r.detail;
    EXPECT_FALSE(r.result.tokens.empty());
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, accepted.load());
  check_accounting(stats);
}

// ---------------------------------------------------------------------------
// Chaos: availability 1.0 in batch mode

#if PC_FAULTS_ENABLED

TEST_F(BatchServeTest, BatchChaosKeepsFullAvailability) {
  constexpr int kRequests = 24;
  std::vector<std::string> prompts;
  std::vector<GenerateOptions> options;
  for (int i = 0; i < kRequests; ++i) {
    prompts.push_back(kPrompts[static_cast<size_t>(i) % kNumPrompts]);
    options.push_back(ask_options(workload_));
  }
  const auto expected = reference_tokens(prompts, options);

  const char* env = std::getenv("PC_FAULTS");
  const std::string spec =
      (env && *env)
          ? std::string(env)
          : "seed=1234,encode=0.3,link=0.25,evict=0.3,stall=0.15:5";
  FaultInjector::global().configure(spec);

  SharedModuleStore store(/*device=*/0, /*host=*/0);
  ServerConfig cfg;
  cfg.batching = true;
  cfg.batch.max_batch = 4;
  cfg.schemas = {kSchema};
  cfg.engine.eager_encode = false;  // encode at serve time, under faults
  cfg.link.latency_s = 0.002;       // nonzero so link faults are polled
  {
    Server server(model_, workload_.tokenizer(), store, cfg);
    for (int i = 0; i < kRequests; ++i) {
      server.submit(prompts[static_cast<size_t>(i)],
                    options[static_cast<size_t>(i)]);
    }
    const auto responses = server.drain();
    FaultInjector::global().disable();

    ASSERT_EQ(responses.size(), static_cast<size_t>(kRequests));
    for (int i = 0; i < kRequests; ++i) {
      const ServerResponse& r = responses[static_cast<size_t>(i)];
      EXPECT_TRUE(is_served(r.status))
          << "id " << r.id << " status " << to_string(r.status) << ": "
          << r.detail;
      // Faults may cost retries or degrade the path, never the tokens.
      EXPECT_EQ(r.result.tokens, expected[static_cast<size_t>(i)])
          << "id " << r.id << " status " << to_string(r.status);
      check_status_invariants(r);
    }

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kRequests));
    EXPECT_EQ(stats.completed, static_cast<uint64_t>(kRequests));
    EXPECT_EQ(stats.shed, 0u);
    EXPECT_EQ(stats.timeouts, 0u);
    EXPECT_EQ(stats.failed, 0u);
    check_accounting(stats);
  }
}

// A request that degrades inside admit() after rendering some of its
// modules never reaches an iteration, yet its renditions count toward the
// module high-water mark before the completion releases them.
TEST_F(BatchServeTest, DegradedAdmissionCountsItsRenditions) {
  const std::string schema = footprint_schema();
  const std::string prompt =
      "<prompt schema=\"fp\"><m0/><m1/> question: q10</prompt>";
  const GenerateOptions options = ask_options(workload_);

  PromptCacheEngine sequential(model_, workload_.tokenizer());
  sequential.load_schema(schema);
  const std::vector<TokenId> expected =
      sequential.serve_full_prefill(prompt, options).tokens;

  BatchScheduler::Options opts;
  opts.schemas = {schema};
  opts.retry.max_retries = 0;
  DirectScheduler direct(model_, workload_.tokenizer(), opts);
  SharedModuleStore& store = direct.sched().engine().store();
  // Pinned m0 is exempt from injected eviction, so assembly renders it;
  // m1 is then evicted and its re-encode fails, degrading the request.
  ASSERT_TRUE(store.pin("fp::m0"));
  FaultInjector::global().configure("evict=1,encode=1");
  direct.admit(prompt, options);
  FaultInjector::global().disable();
  EXPECT_EQ(FaultInjector::global().injected(FaultPoint::kEvict), 1u);
  EXPECT_TRUE(direct.sched().idle());

  const auto responses = direct.run_until_idle();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, ServeStatus::kDegraded) << responses[0].detail;
  EXPECT_EQ(responses[0].result.tokens, expected);
  EXPECT_GT(direct.sched().kv_stats().module_bytes, 0u);
  EXPECT_EQ(direct.sched().pool().live_bytes(), 0u);
  EXPECT_EQ(module_gauge(), 0);
  EXPECT_TRUE(store.unpin("fp::m0"));
}

#endif  // PC_FAULTS_ENABLED

}  // namespace
}  // namespace pc
