// The traced run (--trace 1): per-layer metrics.
//
// Four parts, all driven through public APIs with spans recorded here,
// around each call (the program's own PC_SPAN tracing stays off):
//   1. a short Server run of the workload's traffic, for the server,
//      store and batch counters the Server reports;
//   2. a one-thread replay of the workload's requests through the engine
//      (bind, ensure_encoded, store find, assemble_and_prefill) and the
//      model (uncached prefill, decode steps);
//   3. the same requests through a BatchScheduler (admit / step) and a
//      ChatSession (assembly, one turn; session replays its scripts);
//   4. kernels at the workload model's shapes, and a copy-bandwidth
//      ceiling for them.
// Spans are kept in memory and written to <tmpdir>/trace_<workload>.json
// (Chrome trace format) at the end.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>

#include "bench.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/session.h"
#include "sys/batch.h"
#include "tensor/ops.h"

namespace perfbench {

using namespace pc;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

// In-memory span log. A span's parent is the span open around it; every
// span carries the replayed request's index (or -1).
class SpanLog {
 public:
  struct Span {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    int64_t parent;   // index into spans, -1 at top level
    int64_t request;  // replayed request index, -1 for none
  };

  SpanLog() { spans_.reserve(1 << 16); }

  // Runs fn inside a span; returns its duration in ms.
  template <typename Fn>
  double time(const char* name, int64_t request, Fn&& fn) {
    const int64_t idx = static_cast<int64_t>(spans_.size());
    spans_.push_back({name, now_ns(), 0, open_, request});
    const int64_t saved = open_;
    open_ = idx;
    fn();
    open_ = saved;
    Span& s = spans_[static_cast<size_t>(idx)];
    s.end_ns = now_ns();
    return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }

  size_t size() const { return spans_.size(); }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "") << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << static_cast<double>(s.start_ns) / 1e3
          << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
          << ", \"args\": {\"span\": " << i << ", \"parent\": " << s.parent
          << ", \"request\": " << s.request << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  static uint64_t now_ns() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
  }

  std::vector<Span> spans_;
  int64_t open_ = -1;
};

// Per-span cost of SpanLog::time around an empty body, in ms.
double span_cost_ms() {
  SpanLog probe;
  const int n = 20000;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < n; ++i) probe.time("probe", i, [] {});
  return ms_between(t0, Clock::now()) / n;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Runs `pass` until at least min_ms have elapsed and 5 passes are done;
// returns the median pass time in seconds.
template <typename Fn>
double median_pass_s(double min_ms, Fn&& pass) {
  std::vector<double> passes;
  const Clock::time_point t0 = Clock::now();
  while (passes.size() < 5 || ms_between(t0, Clock::now()) < min_ms) {
    const Clock::time_point a = Clock::now();
    pass();
    passes.push_back(ms_between(a, Clock::now()) / 1e3);
  }
  return median(passes);
}

void kernel_metrics(const Model& model, int context_tokens, SpanLog& spans,
                    Metrics& m) {
  const ModelConfig& c = model.config();
  const ModelWeights& w = model.weights();
  std::vector<const Tensor*> mats;
  for (const LayerWeights& l : w.layers) {
    for (const Tensor* t :
         {&l.wq, &l.wk, &l.wv, &l.wo, &l.w_gate, &l.w_up, &l.w_down}) {
      if (!t->empty()) mats.push_back(t);
    }
  }
  mats.push_back(&w.lm_head);
  size_t weight_bytes = 0;
  double flops32 = 0;
  size_t max_rows = 0, max_k = 0;
  for (const Tensor* t : mats) {
    weight_bytes += t->byte_size();
    flops32 += 2.0 * 32 * static_cast<double>(t->numel());
    max_rows = std::max<size_t>(max_rows, static_cast<size_t>(t->dim(0)));
    max_k = std::max<size_t>(max_k, static_cast<size_t>(t->dim(1)));
  }
  Rng rng(7);
  std::vector<float> x(32 * max_k), y(32 * max_rows);
  for (float& v : x) v = rng.uniform(-1, 1);

  // Decode: one activation row against every weight matrix of the model.
  const double decode_s = median_pass_s(300, [&] {
    spans.time("tensor.gemm_nt.1row", -1, [&] {
      for (const Tensor* t : mats) {
        gemm_nt(x.data(), t->data(), y.data(), 1,
                static_cast<size_t>(t->dim(1)),
                static_cast<size_t>(t->dim(0)));
      }
    });
  });
  m.add("tensor.decode_matvec_gbps",
        static_cast<double>(weight_bytes) / decode_s / 1e9, "GB/s");

  // Prefill: a 32-row chunk (the batch scheduler's chunk size).
  const double prefill_s = median_pass_s(300, [&] {
    spans.time("tensor.gemm_nt.32rows", -1, [&] {
      for (const Tensor* t : mats) {
        gemm_nt(x.data(), t->data(), y.data(), 32,
                static_cast<size_t>(t->dim(1)),
                static_cast<size_t>(t->dim(0)));
      }
    });
  });
  m.add("tensor.prefill_gemm_gflops", flops32 / prefill_s / 1e9, "GFLOP/s");

  // Attention: every query head of one layer over `context_tokens` rows.
  const size_t n_ctx = static_cast<size_t>(std::max(1, context_tokens));
  const size_t kv_dim = static_cast<size_t>(c.kv_dim());
  const size_t d_head = static_cast<size_t>(c.d_head);
  std::vector<float> k(n_ctx * kv_dim), v(n_ctx * kv_dim);
  for (float& f : k) f = rng.uniform(-1, 1);
  for (float& f : v) f = rng.uniform(-1, 1);
  std::vector<const float*> k_rows(n_ctx), v_rows(n_ctx);
  for (size_t j = 0; j < n_ctx; ++j) {
    k_rows[j] = k.data() + j * kv_dim;
    v_rows[j] = v.data() + j * kv_dim;
  }
  std::vector<float> q(static_cast<size_t>(c.q_dim())), out(d_head),
      scores(n_ctx);
  for (float& f : q) f = rng.uniform(-1, 1);
  const int group = c.n_heads / c.n_kv_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d_head));
  const double attn_s = median_pass_s(300, [&] {
    spans.time("tensor.attn_fused_gather", -1, [&] {
      for (int h = 0; h < c.n_heads; ++h) {
        attn_fused_gather(q.data() + static_cast<size_t>(h) * d_head,
                          k_rows.data(), v_rows.data(),
                          static_cast<size_t>(h / group) * d_head, d_head,
                          n_ctx, scale, 0.0f, nullptr, nullptr,
                          scores.data(), out.data());
      }
    });
  });
  const double attn_bytes = static_cast<double>(c.n_heads) *
                            static_cast<double>(n_ctx * d_head * 2) *
                            sizeof(float);
  m.add("tensor.attn_gather_gbps", attn_bytes / attn_s / 1e9, "GB/s");
  m.add("tensor.attn_context_tokens", static_cast<double>(n_ctx), "count");

  // Ceiling: STREAM-style copy over 2 x 32 MiB on the program's kernel
  // thread pool (the threads gemm_nt runs on); bytes = read + write.
  const size_t n = (32u << 20) / sizeof(double);
  std::vector<double> a(n, 1.0), b(n, 2.0);
  ThreadPool& pool = ThreadPool::global();
  const double copy_s = median_pass_s(300, [&] {
    pool.parallel_for(n, [&](size_t lo, size_t hi) {
      std::memcpy(b.data() + lo, a.data() + lo, (hi - lo) * sizeof(double));
    });
  });
  const double copy_bytes = 2.0 * static_cast<double>(n * sizeof(double));
  m.add("machine.copy_gbps", copy_bytes / copy_s / 1e9, "GB/s");
  // Working-set sizes, to place each kernel against the machine's caches.
  info("kernels",
       "{\"weight_mib\": " +
           std::to_string(static_cast<double>(weight_bytes) / kMiB) +
           ", \"attn_kv_mib\": " + std::to_string(attn_bytes / kMiB) +
           ", \"copy_mib\": " + std::to_string(copy_bytes / kMiB) + "}");
}

}  // namespace

void run_layers(const Args& args, Inputs& in, Metrics& m, Outcome& o) {
  Traffic& t = in.traffic;
  const std::string spill_dir = args.tmpdir + "/spill";
  std::filesystem::create_directories(spill_dir);
  SpanLog spans;

  // 1. Server run (one set-up, both phases).
  const ServePhases sp = serve_phases(args, t, 1, o);
  std::vector<double> queue_ms, service_ms;
  for (const ServerResponse& r : sp.closed_responses) {
    queue_ms.push_back(r.queue_ms);
    service_ms.push_back(r.service_ms);
  }
  const ModuleStoreStats& ss = sp.stats.store;

  // 2. One-thread replay through engine and model.
  const Clock::time_point replay0 = Clock::now();
  const Model model = t.build_model();
  const int replay = in.session != nullptr ? 64 : 96;
  std::vector<double> bind_ms, find_us, assemble_ms, retrieve_ms,
      prefill_ms_tok, decode_ms;
  double encode_ms = 0, retrieve_bytes = 0, cached = 0, uncached = 0;
  int context_tokens = 0;
  uint64_t encoded = 0;
  {
    std::unique_ptr<SharedModuleStore> store = t.make_store(spill_dir);
    EngineConfig cfg = t.server.engine;
    cfg.eager_encode = false;  // encodes are timed per request below
    PromptCacheEngine engine(model, *t.tokenizer, *store, cfg);
    for (const std::string& s : t.schemas) engine.load_schema(s);
    for (int i = 0; i < replay; ++i) {
      const std::string& prompt =
          t.prompts[static_cast<size_t>(t.pick(static_cast<uint64_t>(i)))];
      std::optional<pml::PromptBinding> binding;
      bind_ms.push_back(
          spans.time("pml.bind", i, [&] { binding = engine.bind(prompt); }));
      const uint64_t before = engine.stats().modules_encoded;
      spans.time("engine.ensure_encoded", i,
                 [&] { encode_ms += engine.ensure_encoded(*binding); });
      encoded += engine.stats().modules_encoded - before;
      for (const std::string& key : engine.module_keys(*binding)) {
        find_us.push_back(
            1e3 * spans.time("store.find", i, [&] { (void)store->find(key); }));
      }
      KVCache cache = model.make_cache();
      TtftBreakdown tb;
      Tensor logits;
      assemble_ms.push_back(spans.time("engine.assemble_and_prefill", i, [&] {
        logits = engine.assemble_and_prefill(*binding, cache, &tb);
      }));
      retrieve_ms.push_back(tb.retrieve_ms);
      retrieve_bytes +=
          static_cast<double>(tb.bytes_from_host + tb.bytes_from_device);
      cached += tb.cached_tokens;
      uncached += tb.uncached_tokens;
      // The uncached stream again, over the cached rows alone.
      cache.truncate(tb.cached_tokens);
      const UncachedStream stream = collect_uncached(*binding);
      prefill_ms_tok.push_back(
          spans.time("model.forward.prefill", i,
                     [&] {
                       logits = model.forward(stream.tokens, stream.pos_ids,
                                              cache);
                     }) /
          static_cast<double>(std::max<size_t>(1, stream.tokens.size())));
      TokenId tok = Model::argmax(logits);
      int pos = stream.pos_ids.back() + 1;
      context_tokens = cache.size();
      for (int k = 1; k < t.gen.max_new_tokens; ++k, ++pos) {
        decode_ms.push_back(spans.time("model.forward.decode", i, [&] {
          logits = model.forward({&tok, 1}, {&pos, 1}, cache);
        }));
        tok = Model::argmax(logits);
      }
    }
  }

  // 3a. The same requests through a BatchScheduler, kept full.
  std::vector<double> admit_ms, step_ms;
  BatchKVStats kv;
  double tokens_per_step = 0;
  {
    std::unique_ptr<SharedModuleStore> store = t.make_store(spill_dir);
    BatchScheduler::Options opts;
    opts.engine = t.server.engine;
    opts.schemas = t.schemas;
    opts.batch = t.server.batch;
    uint64_t done = 0, ok = 0;
    BatchScheduler sched(model, *t.tokenizer, store.get(), opts,
                         [&](ServerResponse&& r) {
                           ++done;
                           ok += r.status == ServeStatus::kOk ? 1 : 0;
                         });
    int next = 0;
    while (next < replay || !sched.idle()) {
      while (next < replay && sched.has_capacity()) {
        BatchScheduler::Request req;
        req.id = static_cast<uint64_t>(next);
        req.prompt = t.prompts[static_cast<size_t>(
            t.pick(static_cast<uint64_t>(next)))];
        req.options = t.gen;
        req.enqueued = Clock::now();
        admit_ms.push_back(spans.time("batch.admit", next, [&] {
          sched.admit(std::move(req));
        }));
        ++next;
      }
      step_ms.push_back(spans.time("batch.step", -1, [&] { sched.step(); }));
    }
    o.check(done == static_cast<uint64_t>(replay) && ok == done,
            "every replayed request completes ok through the scheduler");
    kv = sched.kv_stats();
    tokens_per_step = ratio(static_cast<double>(sched.batched_tokens()),
                            static_cast<double>(sched.iterations()));
  }

  // 3b. ChatSession: the session workload replays its scripts; the others
  // hold a session over each replayed prompt and send it one more question.
  std::vector<double> session_ms, reply_tokens, turn_context;
  {
    EngineConfig cfg = t.server.engine;
    cfg.eager_encode = true;
    PromptCacheEngine engine(model, *t.tokenizer, cfg);
    for (const std::string& s : t.schemas) engine.load_schema(s);
    if (in.session != nullptr) {
      GenerateOptions opts;
      opts.max_new_tokens = 5;
      opts.stop_tokens = {*t.tokenizer->vocab().find_piece(".")};
      for (int rep = 0; rep < 8; ++rep) {
        for (const SessionScript& sc : in.session->round) {
          std::optional<ChatSession> session;
          session_ms.push_back(spans.time("session.assemble", rep, [&] {
            session.emplace(engine, sc.prompt, /*wrap_turns=*/false);
          }));
          for (const std::string& turn : sc.turns) {
            turn_context.push_back(session->context_tokens());
            ChatSession::TurnResult r;
            spans.time("session.send", rep,
                       [&] { r = session->send(turn, opts); });
            reply_tokens.push_back(static_cast<double>(r.tokens.size()));
          }
        }
      }
    } else {
      for (int i = 0; i < 24; ++i) {
        const size_t p = static_cast<size_t>(t.pick(static_cast<uint64_t>(i)));
        std::optional<ChatSession> session;
        session_ms.push_back(spans.time("session.assemble", i, [&] {
          session.emplace(engine, t.prompts[p]);
        }));
        turn_context.push_back(session->context_tokens());
        ChatSession::TurnResult r;
        spans.time("session.send", i, [&] {
          r = session->send(t.questions[(p + 1) % t.questions.size()], t.gen);
        });
        reply_tokens.push_back(static_cast<double>(r.tokens.size()));
      }
    }
  }

  // 4. Kernels at this model's shapes, attention over the replay's context.
  kernel_metrics(model, context_tokens, spans, m);
  const double replay_ms = ms_between(replay0, Clock::now());

  m.add("model.prefill_ms_per_token", median(prefill_ms_tok), "ms");
  m.add("model.decode_step_ms", median(decode_ms), "ms");
  m.add("pml.bind_ms", median(bind_ms), "ms");
  m.add("engine.encode_ms", ratio(encode_ms, static_cast<double>(encoded)),
        "ms");
  m.add("engine.assemble_prefill_ms", median(assemble_ms), "ms");
  m.add("engine.retrieve_ms", median(retrieve_ms), "ms");
  m.add("engine.retrieve_mb", retrieve_bytes / replay / kMiB, "MB");
  m.add("engine.cached_token_ratio", ratio(cached, cached + uncached),
        "ratio");
  m.add("store.find_us", median(find_us), "us");
  m.add("store.hit_ratio",
        ratio(static_cast<double>(ss.hits),
              static_cast<double>(ss.hits + ss.misses)),
        "ratio");
  m.add("store.encodes", static_cast<double>(sp.stats.modules_encoded),
        "count");
  m.add("store.spills", static_cast<double>(sp.disk.spills), "count");
  m.add("store.faults", static_cast<double>(sp.disk.faults), "count");
  m.add("store.fault_ms",
        ratio(sp.disk.stall_ms(), static_cast<double>(sp.disk.faults)), "ms");
  m.add("store.prefetch_hit_ratio", sp.disk.prefetch_hit_rate(), "ratio");
  m.add("store.peak_resident_mb",
        static_cast<double>(sp.store_peak_resident) / kMiB, "MB");
  m.add("batch.admit_ms", median(admit_ms), "ms");
  m.add("batch.step_ms", median(step_ms), "ms");
  // Batching workloads report the Server's own pool; the others the
  // replayed scheduler's.
  const bool batching = sp.stats.batching;
  m.add("batch.tokens_per_step",
        batching ? ratio(static_cast<double>(sp.stats.batch_tokens),
                         static_cast<double>(sp.stats.batch_iterations))
                 : tokens_per_step,
        "count");
  m.add("batch.kv_peak_mb",
        static_cast<double>(batching ? sp.stats.kv_peak_bytes
                                     : kv.peak_live_bytes) /
            kMiB,
        "MB");
  m.add("batch.module_mb",
        static_cast<double>(batching ? sp.stats.kv_module_bytes
                                     : kv.module_bytes) /
            kMiB,
        "MB");
  m.add("server.queue_ms", quantile(queue_ms, 0.99), "ms");
  m.add("server.service_ms", quantile(service_ms, 0.50), "ms");
  m.add("session.assemble_ms", median(session_ms), "ms");
  m.add("session.reply_tokens", mean(reply_tokens), "count");
  m.add("session.context_tokens", mean(turn_context), "count");

  // Tracing overhead: the spans' own cost over the replays' wall time.
  const std::string path = args.tmpdir + "/trace_" + t.name + ".json";
  o.check(spans.write(path), "span dump written");
  const double cost_ms = span_cost_ms();
  m.add("trace.overhead_pct",
        100.0 * cost_ms * static_cast<double>(spans.size()) / replay_ms, "%");
  info("trace", "{\"spans\": " + std::to_string(spans.size()) +
                    ", \"span_cost_us\": " + std::to_string(1e3 * cost_ms) +
                    ", \"replay_s\": " + std::to_string(replay_ms / 1e3) +
                    ", \"file\": \"" + path + "\"}");
}

}  // namespace perfbench
