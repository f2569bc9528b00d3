#include "sys/batch.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/logging.h"
#include "common/timer.h"
#include "obs/request_timeline.h"
#include "obs/trace.h"
#include "sys/fault.h"

namespace pc {

namespace {

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::chrono::steady_clock::duration from_ms(double ms) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

// Index of the stop sequence forming a suffix of `out`, or -1 (mirrors the
// decode loop in model.cpp).
int matched_stop_sequence(const std::vector<TokenId>& out,
                          const GenerateOptions& options) {
  for (size_t s = 0; s < options.stop_sequences.size(); ++s) {
    const auto& seq = options.stop_sequences[s];
    if (seq.empty() || seq.size() > out.size()) continue;
    if (std::equal(seq.begin(), seq.end(), out.end() - seq.size())) {
      return static_cast<int>(s);
    }
  }
  return -1;
}

}  // namespace

BatchScheduler::BatchScheduler(const Model& model,
                               const TextTokenizer& tokenizer,
                               SharedModuleStore* shared, Options options,
                               CompletionFn on_complete)
    : model_(model),
      tokenizer_(tokenizer),
      options_(std::move(options)),
      on_complete_(std::move(on_complete)),
      pool_(options_.batch.page_tokens, model.kv_bytes_per_token(),
            Q8TokenLayout{model.config().n_layers, model.config().kv_dim()}
                .stride(),
            Q4TokenLayout{model.config().n_layers, model.config().kv_dim()}
                .stride()) {
  PC_CHECK_MSG(options_.batch.max_batch > 0, "BatchConfig::max_batch must be > 0");
  PC_CHECK_MSG(options_.batch.chunk_tokens > 0,
               "BatchConfig::chunk_tokens must be > 0");
  PC_CHECK_MSG(options_.batch.page_tokens > 0,
               "BatchConfig::page_tokens must be > 0");
  PC_CHECK_MSG(options_.engine.precision == StorePrecision::kFp32 ||
                   options_.engine.precision == StorePrecision::kQ8 ||
                   options_.engine.precision == StorePrecision::kQ4,
               "batched serving requires kFp32, kQ8, or kQ4 module storage "
               "(pages are read in place by the gathered attention kernels; "
               "fp16 has no in-place kernel)");
  PC_CHECK_MSG(on_complete_ != nullptr,
               "BatchScheduler needs a completion callback");
  engine_ = shared != nullptr
                ? std::make_unique<PromptCacheEngine>(model_, tokenizer_,
                                                      *shared, options_.engine)
                : std::make_unique<PromptCacheEngine>(model_, tokenizer_,
                                                      options_.engine);
  for (const std::string& pml : options_.schemas) {
    try {
      engine_->load_schema(pml);
    } catch (const TransientError& e) {
      // Same recovery as a worker: the schema registered before encoding
      // started, so missing modules re-encode lazily on first import.
      PC_LOG_WARN << "batch scheduler: eager encode failed at startup ("
                  << e.what() << "); modules will encode lazily";
    }
  }
  auto& reg = obs::MetricsRegistry::global();
  iterations_ = reg.counter("pc_batch_iterations_total",
                            "batched forward iterations executed");
  batch_tokens_ = reg.counter("pc_batch_tokens_total",
                              "tokens processed by batched iterations");
  admitted_ = reg.counter("pc_batch_admitted_total",
                          "requests admitted into the batch loop");
  active_gauge_ = reg.gauge("pc_batch_active", "requests in the batch loop");
  kv_live_ = reg.gauge("pc_batch_kv_live_bytes",
                       "paged KV pool bytes currently referenced");
  kv_peak_ = reg.gauge("pc_batch_kv_peak_bytes",
                       "paged KV pool live-byte high-water mark");
  kv_modules_ = reg.gauge("pc_batch_kv_module_bytes",
                          "paged KV bytes held by shared module renditions");
  ttft_ = reg.histogram("pc_batch_ttft_engine_seconds",
                        "engine-side TTFT of batch-served requests");
}

BatchScheduler::~BatchScheduler() = default;

double BatchScheduler::backoff_ms_for(uint64_t id, int attempt) const {
  // Shared with the worker pool (retry_backoff_ms, sys/serve_types.h) so
  // the two modes retry on identical deterministic schedules.
  return retry_backoff_ms(options_.retry, id, attempt);
}

void BatchScheduler::assemble_paged(const pml::PromptBinding& binding,
                                    Seq& seq) {
  WallTimer retrieve_timer;
  PC_SPAN("kv_concat_paged",
          {"modules", static_cast<int64_t>(binding.modules.size())});
  TtftBreakdown& ttft = seq.result.ttft;
  engine_->for_each_encoded(
      binding, [&](const std::string& key, const EncodedModule& m,
                   ModuleLocation loc) {
        const size_t text_bytes =
            m.bytes_per_token() * static_cast<size_t>(m.text_token_count());
        auto it = paged_modules_.find(key);
        if (it == paged_modules_.end()) {
          PC_CHECK_MSG((m.precision == StorePrecision::kFp32 &&
                        m.kv32.has_value()) ||
                           m.precision == StorePrecision::kQ8 ||
                           m.precision == StorePrecision::kQ4,
                       "batched serving requires kFp32, kQ8, or kQ4 module "
                       "storage (module '" << key << "' is stored as fp16, "
                       "which has no in-place attention kernel)");
          // No active request holds this module: materialize its text
          // rows into a packed paged rendition. The bytes cross a tier link
          // once; every concurrent importer attaches the same pages.
          // Quantized modules land in quantized pages (~4x smaller for q8,
          // ~8x for q4) that importers score in the integer domain — never
          // dequantized.
          PagedKVCache rendition(pool_, model_.config().n_layers,
                                 model_.config().kv_dim());
          for (const auto& [begin, end] : m.text_row_ranges) {
            if (m.precision == StorePrecision::kQ8) {
              rendition.append_copy_q8(m.kv8_layers, m.pos_ids, begin, end);
            } else if (m.precision == StorePrecision::kQ4) {
              rendition.append_copy_q4(m.kv4_layers, m.pos_ids, begin, end);
            } else {
              rendition.append_copy(*m.kv32, begin, end);
            }
          }
          it = paged_modules_.emplace(key, std::move(rendition)).first;
          if (loc == ModuleLocation::kHostMemory) {
            ttft.bytes_from_host += text_bytes;
          } else {
            ttft.bytes_from_device += text_bytes;
          }
        } else {
          // Already paged: shared by reference, nothing moves.
          ttft.bytes_zero_copy += text_bytes;
        }
        seq.cache.append_shared(it->second);
        ttft.cached_tokens += m.text_token_count();
        ++ttft.modules;
      });
  ttft.retrieve_ms = retrieve_timer.elapsed_ms();
}

void BatchScheduler::degrade(Seq& seq, const std::string& why) {
  if (obs::request_telemetry_enabled()) {
    seq.resp.annotations.push_back("degraded: " + why);
  }
  try {
    PC_SPAN("serve_degraded", {"request", static_cast<int64_t>(seq.req.id)});
    seq.result = engine_->serve_full_prefill(seq.req.prompt, seq.req.options);
    seq.done_status = ServeStatus::kDegraded;
    seq.resp.detail = why;
  } catch (const CancelledError& e) {
    seq.done_status = ServeStatus::kTimeout;
    seq.resp.detail = e.what();
  } catch (const std::exception& e) {
    seq.done_status = ServeStatus::kFailed;
    seq.resp.detail = e.what();
  }
  seq.done = true;
}

void BatchScheduler::finish_serve(std::unique_ptr<Seq> seq) {
  const auto done = std::chrono::steady_clock::now();
  ServeStatus status = seq->done_status;
  ServerResponse resp = std::move(seq->resp);
  resp.service_ms = ms_between(seq->dequeued, done);
  // Deadline enforcement at completion (same rule as the worker pool): a
  // serve that finished past its deadline is a timeout even if no
  // cancellation point fired.
  if (is_served(status) && seq->req.token.expired()) {
    status = ServeStatus::kTimeout;
    resp.detail = "deadline expired during service";
  }
  resp.deadline_met = seq->req.deadline_ms <= 0 || !seq->req.token.expired();
  if (is_served(status)) {
    resp.result = std::move(seq->result);
    resp.ttft_ms = resp.queue_ms + resp.stall_ms + resp.result.ttft.total_ms();
    if (status == ServeStatus::kOk) {
      ttft_.record_seconds(resp.result.ttft.total_ms() / 1e3);
    }
  } else {
    resp.result = ServeResult{};
  }
  resp.status = status;
  // Record the high-water marks while the sequence still holds its pages:
  // a request that degraded or failed inside admit() never reached step()'s
  // refresh, yet may have rendered modules. Then release the sequence's
  // pages (and the module renditions only it held) and settle the KV gauges
  // BEFORE the completion callback fires. The callback is what lets drain()
  // return, so any pool or gauge write after it races a caller that reads
  // stats() the moment drain() wakes.
  refresh_kv_gauges();
  seq.reset();
  release_unused_modules();
  refresh_kv_gauges();
  on_complete_(std::move(resp));
}

void BatchScheduler::admit(Request request) {
  const auto dequeued = std::chrono::steady_clock::now();
  admitted_.inc();
  auto seq = std::make_unique<Seq>(std::move(request), pool_,
                                   model_.config().n_layers,
                                   model_.config().kv_dim());
  seq->dequeued = dequeued;
  seq->resp.id = seq->req.id;
  seq->resp.worker = 0;  // the single batch lane
  seq->resp.queue_ms = ms_between(seq->req.enqueued, dequeued);

  // Deadline blown while queued: shed before any service work.
  if (seq->req.token.expired()) {
    ServerResponse resp = std::move(seq->resp);
    resp.status = ServeStatus::kShed;
    resp.detail = "shed at dequeue: deadline expired while queued";
    resp.deadline_met = false;
    resp.service_ms = 0;
    seq.reset();  // the empty cache still must not outlive the callback
    on_complete_(std::move(resp));
    return;
  }

  PC_SPAN_NAMED(admit_span, "batch_admit",
                {"request", static_cast<int64_t>(seq->req.id)},
                {"queue_us", static_cast<int64_t>(seq->resp.queue_ms * 1e3)});
  PC_FLOW_END("request", options_.flow_seed | (seq->req.id & 0xffffffffu));

  // Per-request cache attribution (same scheme as the worker pool): the
  // batch lane owns the one engine, and admission is serialized on this
  // thread, so the encode-counter delta around admission is exactly this
  // request's module misses.
  const bool reqtl = obs::request_telemetry_enabled();
  // Routing / failover provenance from the submitter lands first in the
  // annotation stream, before any fault notes (same order as the worker
  // pool).
  if (reqtl && !seq->req.annotation.empty()) {
    seq->resp.annotations.push_back(seq->req.annotation);
  }
  uint64_t encodes_before = 0;
  if (reqtl) {
    const EngineStats es = engine_->stats();
    encodes_before = es.modules_encoded + es.scaffolds_encoded;
  }
  const auto settle_misses = [&](Seq& s) {
    if (!reqtl) return;
    const EngineStats es = engine_->stats();
    s.resp.module_misses = static_cast<int>(
        es.modules_encoded + es.scaffolds_encoded - encodes_before);
  };

  FaultInjector& faults = FaultInjector::global();
  // Injected straggler: the batch lane freezes before admission, exactly
  // as a worker would before serving.
  if (faults.should_fail(FaultPoint::kStall)) {
    const double stall = faults.stall_ms(FaultPoint::kStall);
    PC_SPAN("fault_stall", {"ms", static_cast<int64_t>(stall)});
    if (reqtl) {
      seq->resp.annotations.push_back("fault_stall " + std::to_string(stall) +
                                      "ms");
    }
    std::this_thread::sleep_for(from_ms(stall));
  }

  seq->req.options.cancel = seq->req.token;

  if (seq->req.force_full_prefill) {
    // The submitter decided the cache path cannot serve this request
    // (shard router: every replica holding its modules is down) — go
    // straight to the bitwise-identical full-prefill fallback.
    degrade(*seq, seq->req.annotation.empty() ? "forced full prefill"
                                              : seq->req.annotation);
    settle_misses(*seq);
    finish_serve(std::move(seq));
    return;
  }

  for (int attempt = 0;; ++attempt) {
    try {
      // Reset per-attempt state: a failed assembly may have left partial
      // pages attached.
      seq->cache = PagedKVCache(pool_, model_.config().n_layers,
                                model_.config().kv_dim());
      seq->result = ServeResult{};
      const pml::PromptBinding binding = engine_->bind(seq->req.prompt);
      seq->result.encode_ms =
          engine_->ensure_encoded(binding, seq->req.options.cancel);
      assemble_paged(binding, *seq);
      // Uncached stream + kickoff, exactly as serve(): a fully cached
      // prompt computes one <s> row at next_pos to produce logits, and
      // generation starts one position later.
      seq->stream = collect_uncached(binding);
      const bool kickoff = binding.args.empty() && binding.texts.empty();
      if (seq->stream.tokens.empty()) {
        seq->stream.tokens.push_back(Vocab::kBos);
        seq->stream.pos_ids.push_back(binding.next_pos);
      }
      seq->gen_start = binding.next_pos + (kickoff ? 1 : 0);
      break;
    } catch (const CancelledError& e) {
      seq->done_status = ServeStatus::kTimeout;
      seq->resp.detail = e.what();
      seq->done = true;
      settle_misses(*seq);
      finish_serve(std::move(seq));
      return;
    } catch (const TransientError& e) {
      // Retries stop the moment the deadline expires (same rule as the
      // worker pool): another attempt can only finish later than a caller
      // who is already gone.
      if (seq->req.token.expired()) {
        seq->done_status = ServeStatus::kTimeout;
        seq->resp.detail = "deadline expired before retry";
        seq->done = true;
        settle_misses(*seq);
        finish_serve(std::move(seq));
        return;
      }
      if (attempt < options_.retry.max_retries) {
        ++seq->resp.retries;
        PC_SPAN("serve_retry", {"attempt", attempt + 1});
        if (reqtl) {
          seq->resp.annotations.push_back(
              "retry " + std::to_string(attempt + 1) + ": " + e.what());
        }
        std::this_thread::sleep_for(
            from_ms(backoff_ms_for(seq->req.id, attempt)));
        continue;
      }
      degrade(*seq, e.what());
      settle_misses(*seq);
      finish_serve(std::move(seq));
      return;
    } catch (const CacheError& e) {
      // Structural (the module fits in neither tier): degrade directly.
      degrade(*seq, e.what());
      settle_misses(*seq);
      finish_serve(std::move(seq));
      return;
    } catch (const std::exception& e) {
      seq->done_status = ServeStatus::kFailed;
      seq->resp.detail = e.what();
      seq->done = true;
      settle_misses(*seq);
      finish_serve(std::move(seq));
      return;
    }
  }
  settle_misses(*seq);

  // Simulated host-link transfer for bytes this request pulled from host
  // memory (first materialization of its modules). Modeled as a phase with
  // a ready-timestamp rather than a sleep, so the transfer overlaps other
  // requests' compute like real DMA.
  // The submitter's extra stall (shard router: cross-shard module fetches)
  // folds into the same transfer phase, so it overlaps other requests'
  // compute too.
  const double stall_s =
      options_.link.stall_s(seq->result.ttft.bytes_from_host) +
      seq->req.extra_stall_ms / 1e3;
  if (stall_s > 0) {
    seq->phase = Phase::kTransfer;
    seq->transfer_ms = stall_s * 1e3;
    seq->transfer_ready =
        std::chrono::steady_clock::now() + from_ms(seq->transfer_ms);
  } else {
    seq->phase = Phase::kPrefill;
  }
  active_.push_back(std::move(seq));
  active_gauge_.add(1);
  refresh_kv_gauges();
}

bool BatchScheduler::advance_decode(Seq& seq) {
  const GenerateOptions& o = seq.req.options;
  // The loop-entry condition: only reachable with max_new_tokens == 0
  // (otherwise the step+1 check below broke out an iteration earlier).
  if (seq.step_idx >= o.max_new_tokens) {
    seq.finish = FinishReason::kLength;
    return true;
  }
  for (TokenId s : o.stop_tokens) {
    if (seq.next == s) {
      seq.finish = FinishReason::kStopToken;
      return true;
    }
  }
  seq.gen_tokens.push_back(seq.next);
  const int hit = matched_stop_sequence(seq.gen_tokens, o);
  if (hit >= 0) {
    seq.gen_tokens.resize(seq.gen_tokens.size() -
                          o.stop_sequences[static_cast<size_t>(hit)].size());
    seq.finish = FinishReason::kStopSequence;
    return true;
  }
  if (seq.step_idx + 1 == o.max_new_tokens) {
    seq.finish = FinishReason::kLength;
    return true;
  }
  const int pos = seq.gen_start + seq.step_idx;
  if (pos >= model_.config().max_pos) {
    seq.finish = FinishReason::kPositionBudget;
    return true;
  }
  if (o.cancel.expired()) {
    seq.finish = FinishReason::kCancelled;
    return true;
  }
  return false;  // needs one forward of seq.next at pos
}

bool BatchScheduler::step() {
  if (active_.empty()) return false;
  FaultInjector& faults = FaultInjector::global();
  const auto now = std::chrono::steady_clock::now();

  // Transfers that completed: pay the stall, poll the link fault, move to
  // prefill (or re-send / degrade, like the worker's link-retry ladder).
  for (auto& sp : active_) {
    Seq& s = *sp;
    if (s.done || s.phase != Phase::kTransfer) continue;
    if (now < s.transfer_ready) continue;
    s.resp.stall_ms += s.transfer_ms;
    if (faults.should_fail(FaultPoint::kLink)) {
      if (s.req.token.expired()) {
        // Retries stop the moment the deadline expires.
        s.done = true;
        s.done_status = ServeStatus::kTimeout;
        s.resp.detail = "deadline expired before retry";
      } else if (s.link_attempts < options_.retry.max_retries) {
        ++s.resp.retries;
        PC_SPAN("serve_retry", {"attempt", s.link_attempts + 1});
        if (obs::request_telemetry_enabled()) {
          s.resp.annotations.push_back("retry " +
                                       std::to_string(s.link_attempts + 1) +
                                       ": host-link transfer lost");
        }
        const double backoff = backoff_ms_for(s.req.id, s.link_attempts);
        ++s.link_attempts;
        // Back off, then re-send the whole transfer.
        s.transfer_ready =
            std::chrono::steady_clock::now() + from_ms(backoff + s.transfer_ms);
      } else {
        degrade(s, "injected fault: host-link transfer lost");
      }
    } else {
      s.phase = Phase::kPrefill;
    }
  }

  // Gather this iteration's work: a prefill chunk or one decode token per
  // active sequence.
  struct WorkRef {
    Seq* seq;
    int chunk;  // > 0 for prefill contributions
  };
  std::vector<Model::BatchSeq> batch;
  std::vector<WorkRef> refs;
  bool any_transfer = false;
  auto earliest_ready = std::chrono::steady_clock::time_point::max();
  for (auto& sp : active_) {
    Seq& s = *sp;
    if (s.done) continue;
    if (s.phase == Phase::kTransfer) {
      any_transfer = true;
      earliest_ready = std::min(earliest_ready, s.transfer_ready);
      continue;
    }
    if (s.phase == Phase::kPrefill) {
      if (!s.prefill_started) {
        s.prefill_started = true;
        s.prefill_start = std::chrono::steady_clock::now();
      }
      if (s.req.token.expired()) {
        s.done = true;
        s.done_status = ServeStatus::kTimeout;
        s.resp.detail = "deadline expired mid-prefill";
        continue;
      }
      const int remaining =
          static_cast<int>(s.stream.tokens.size() - s.prefill_done);
      const int chunk = std::min(options_.batch.chunk_tokens, remaining);
      batch.push_back(Model::BatchSeq{
          std::span<const TokenId>(s.stream.tokens.data() + s.prefill_done,
                                   static_cast<size_t>(chunk)),
          std::span<const int>(s.stream.pos_ids.data() + s.prefill_done,
                               static_cast<size_t>(chunk)),
          &s.cache});
      refs.push_back({&s, chunk});
    } else {  // kDecode: invariant — needs one forward of s.next
      s.decode_tok = s.next;
      s.decode_pos = s.gen_start + s.step_idx;
      batch.push_back(Model::BatchSeq{
          std::span<const TokenId>(&s.decode_tok, 1),
          std::span<const int>(&s.decode_pos, 1), &s.cache});
      refs.push_back({&s, 0});
    }
  }

  if (!batch.empty()) {
    iterations_.inc();
    size_t iteration_tokens = 0;
    for (const auto& b : batch) iteration_tokens += b.tokens.size();
    batch_tokens_.inc(static_cast<uint64_t>(iteration_tokens));
    PC_SPAN("batch_step", {"seqs", static_cast<int64_t>(batch.size())},
            {"tokens", static_cast<int64_t>(iteration_tokens)});
    const Tensor logits = model_.forward_batch(batch);
    const auto after = std::chrono::steady_clock::now();
    for (size_t i = 0; i < refs.size(); ++i) {
      Seq& s = *refs[i].seq;
      if (refs[i].chunk > 0) {
        ++s.resp.prefill_chunks;
        s.prefill_done += static_cast<size_t>(refs[i].chunk);
        if (s.prefill_done < s.stream.tokens.size()) continue;
        // Prefill complete: the first token comes off this iteration's
        // logits — generate_impl's head, with the sequence's own Rng.
        s.result.ttft.uncached_ms = ms_between(s.prefill_start, after);
        s.result.ttft.uncached_tokens =
            static_cast<int>(s.stream.tokens.size());
        s.next = Model::sample_token(logits, static_cast<int64_t>(i),
                                     s.req.options, s.rng);
        s.phase = Phase::kDecode;
        s.step_idx = 0;
        s.decode_start = after;
      } else {
        s.next = Model::sample_token(logits, static_cast<int64_t>(i),
                                     s.req.options, s.rng);
        ++s.step_idx;
      }
      if (advance_decode(s)) {
        if (s.finish == FinishReason::kCancelled) {
          s.done_status = ServeStatus::kTimeout;
          s.resp.detail = "serve: deadline expired mid-decode";
        } else {
          s.result.finish_reason = s.finish;
          s.result.tokens = std::move(s.gen_tokens);
          s.result.text = tokenizer_.decode(s.result.tokens);
          s.result.prompt_tokens =
              s.result.ttft.cached_tokens + s.result.ttft.uncached_tokens;
          s.result.decode_ms =
              ms_between(s.decode_start, std::chrono::steady_clock::now());
          s.done_status = ServeStatus::kOk;
        }
        s.done = true;
      }
    }
  } else if (any_transfer) {
    // Every live sequence is mid-transfer: sleep until the earliest one is
    // ready (bounded, so admissions stay responsive).
    const auto wake = std::min(earliest_ready,
                               std::chrono::steady_clock::now() +
                                   std::chrono::milliseconds(1));
    std::this_thread::sleep_until(wake);
  }

  // Record the KV high-water mark while completed sequences still hold
  // their pages, then sweep them out of the batch (join/leave at token
  // granularity: their slots are free for the next admission).
  // finish_serve refreshes the gauges again after each release, so the
  // live-bytes gauge settles before the final completion is observable.
  refresh_kv_gauges();
  for (size_t i = 0; i < active_.size();) {
    if (active_[i]->done) {
      std::unique_ptr<Seq> sp = std::move(active_[i]);
      active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
      active_gauge_.sub(1);
      finish_serve(std::move(sp));
    } else {
      ++i;
    }
  }
  return !active_.empty();
}

void BatchScheduler::release_unused_modules() {
  // A full-page or quantized-tail rendition stays referenced while any
  // importer is active; an fp32 partial tail was copied on write, so the
  // importer holds its own copy and the rendition can go.
  for (auto it = paged_modules_.begin(); it != paged_modules_.end();) {
    if (it->second.pages_shared()) {
      ++it;
    } else {
      it = paged_modules_.erase(it);
    }
  }
}

size_t BatchScheduler::module_bytes() const {
  size_t bytes = 0;
  for (const auto& [key, cache] : paged_modules_) {
    bytes += cache.total_page_bytes();  // kind-aware: q8/q4 pages are smaller
  }
  return bytes;
}

void BatchScheduler::refresh_kv_gauges() {
  const size_t live = pool_.live_bytes();
  peak_live_bytes_ = std::max(peak_live_bytes_, live);
  kv_live_.set(static_cast<int64_t>(live));
  kv_peak_.set(static_cast<int64_t>(peak_live_bytes_));
  const size_t modules = module_bytes();
  peak_module_bytes_ = std::max(peak_module_bytes_, modules);
  kv_modules_.set(static_cast<int64_t>(modules));
}

BatchKVStats BatchScheduler::kv_stats() const {
  BatchKVStats out;
  out.live_bytes = pool_.live_bytes();
  out.peak_live_bytes = peak_live_bytes_;
  out.module_bytes = peak_module_bytes_;
  out.pages_allocated = pool_.stats().pages_allocated;
  out.cow_copies = pool_.stats().cow_copies;
  return out;
}

}  // namespace pc
