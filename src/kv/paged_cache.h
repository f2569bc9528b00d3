// Paged composite KV cache — the compute-side view onto PagedKVPool.
//
// This is what connects the §3.4 batch-inference memory optimization to the
// forward pass: a request's cache is an ordered list of pool pages plus
// per-layer row-pointer tables (one pointer per logical token, like
// SegmentedKVCache), so the gathered attention kernel reads it directly and
// tokens need not be page-aligned.
//
// Ownership model (docs/INTERNALS.md §10):
//   * An imported module is materialized into a packed PagedKVCache
//     (append_copy) held by the batch scheduler's registry while some
//     active request references its pages. Requests attach it with
//     append_shared: full pages are shared by reference (refcount++, zero
//     copy), and a trailing partially-filled page is copy-on-write
//     duplicated so the request's suffix keeps filling its free slots
//     without touching the module. Once no other cache references a
//     rendition's pages (pages_shared() is false) the scheduler drops it;
//     a later importer renders the module again from the store.
//   * Uncached prompt tokens and decode tokens land in private pages
//     (append_tokens); only rows appended after the last append_shared are
//     writable (shared/COW-borrowed module rows are read-only).
//
// Page layout: token-major, layer-interleaved. A token's slot holds its K
// and V rows for every layer back to back:
//   k_row(layer, slot) = page + slot * (2 * n_layers * kv_dim)
//                             + layer * (2 * kv_dim)
//   v_row(layer, slot) = k_row(layer, slot) + kv_dim
// so one token's full KV payload is bytes_per_token contiguous floats and
// page_bytes/bytes_per_token matches the pool's accounting exactly.
//
// Pointer stability: page payloads are stable heap buffers (the pool's page
// *table* may grow, the payloads never move), so published row pointers
// stay valid for the cache's lifetime.
#pragma once

#include <span>
#include <vector>

#include "kv/kv_cache.h"
#include "kv/paged_pool.h"
#include "kv/quant.h"

namespace pc {

class PagedKVCache {
 public:
  PagedKVCache(PagedKVPool& pool, int n_layers, int kv_dim)
      : pool_(&pool), n_layers_(n_layers), kv_dim_(kv_dim) {
    PC_CHECK(n_layers > 0 && kv_dim > 0);
    PC_CHECK_MSG(pool.page_bytes() ==
                     static_cast<size_t>(pool.page_tokens()) * token_stride() *
                         sizeof(float),
                 "pool page geometry does not match 2 * n_layers * kv_dim "
                 "floats per token");
    k_rows_.resize(static_cast<size_t>(n_layers));
    v_rows_.resize(static_cast<size_t>(n_layers));
  }

  PagedKVCache(const PagedKVCache&) = delete;
  PagedKVCache& operator=(const PagedKVCache&) = delete;
  PagedKVCache(PagedKVCache&& other) noexcept
      : pool_(other.pool_),
        n_layers_(other.n_layers_),
        kv_dim_(other.kv_dim_),
        pages_(std::move(other.pages_)),
        shared_pages_(other.shared_pages_),
        writable_from_(other.writable_from_),
        packed_(other.packed_),
        tail_page_(other.tail_page_),
        tail_used_(other.tail_used_),
        tail_kind_(other.tail_kind_),
        has_q8_(other.has_q8_),
        has_q4_(other.has_q4_),
        pos_ids_(std::move(other.pos_ids_)),
        k_rows_(std::move(other.k_rows_)),
        v_rows_(std::move(other.v_rows_)),
        k8_rows_(std::move(other.k8_rows_)),
        v8_rows_(std::move(other.v8_rows_)),
        k_scales_(std::move(other.k_scales_)),
        v_scales_(std::move(other.v_scales_)),
        k4_rows_(std::move(other.k4_rows_)),
        v4_rows_(std::move(other.v4_rows_)),
        k4_scales_(std::move(other.k4_scales_)),
        v4_scales_(std::move(other.v4_scales_)) {
    other.pages_.clear();
    other.tail_page_ = kInvalidPage;
  }

  PagedKVCache& operator=(PagedKVCache&& other) noexcept {
    if (this != &other) {
      for (PageId id : pages_) pool_->release(id);
      pool_ = other.pool_;
      n_layers_ = other.n_layers_;
      kv_dim_ = other.kv_dim_;
      pages_ = std::move(other.pages_);
      shared_pages_ = other.shared_pages_;
      writable_from_ = other.writable_from_;
      packed_ = other.packed_;
      tail_page_ = other.tail_page_;
      tail_used_ = other.tail_used_;
      tail_kind_ = other.tail_kind_;
      has_q8_ = other.has_q8_;
      has_q4_ = other.has_q4_;
      pos_ids_ = std::move(other.pos_ids_);
      k_rows_ = std::move(other.k_rows_);
      v_rows_ = std::move(other.v_rows_);
      k8_rows_ = std::move(other.k8_rows_);
      v8_rows_ = std::move(other.v8_rows_);
      k_scales_ = std::move(other.k_scales_);
      v_scales_ = std::move(other.v_scales_);
      k4_rows_ = std::move(other.k4_rows_);
      v4_rows_ = std::move(other.v4_rows_);
      k4_scales_ = std::move(other.k4_scales_);
      v4_scales_ = std::move(other.v4_scales_);
      other.pages_.clear();
      other.tail_page_ = kInvalidPage;
    }
    return *this;
  }

  ~PagedKVCache() {
    for (PageId id : pages_) pool_->release(id);
  }

  int n_layers() const { return n_layers_; }
  int kv_dim() const { return kv_dim_; }
  int size() const { return static_cast<int>(pos_ids_.size()); }
  bool empty() const { return pos_ids_.empty(); }
  int pos_id(int token) const {
    return pos_ids_[checked_token(token)];
  }

  // Materializes rows [begin, end) of a dense cache into private pages —
  // how the scheduler builds a module's paged rendition from its encoded
  // (fp32) attention states.
  void append_copy(const KVCache& src, int begin, int end) {
    PC_CHECK_MSG(src.n_layers() == n_layers_ && src.kv_dim() == kv_dim_,
                 "paged append_copy geometry mismatch");
    PC_CHECK(begin >= 0 && begin <= end && end <= src.size());
    const size_t row_bytes = static_cast<size_t>(kv_dim_) * sizeof(float);
    for (int t = begin; t < end; ++t) {
      const int p = src.pos_id(t);
      const int idx = append_tokens(std::span<const int>(&p, 1));
      for (int l = 0; l < n_layers_; ++l) {
        std::memcpy(k_row_mut(l, idx), src.k_row(l, t), row_bytes);
        std::memcpy(v_row_mut(l, idx), src.v_row(l, t), row_bytes);
      }
    }
  }

  // Materializes tokens [begin, end) of a module's Q8_0 payload into
  // quantized pages — the int8 analog of append_copy. The copied rows stay
  // int8 in memory (one memcpy per K/V row plus the scale pair); they are
  // immutable once published, so a q8 rendition is shared entirely by
  // reference and never COW'd.
  void append_copy_q8(const std::vector<Q8Layer>& layers,
                      std::span<const int> src_pos, int begin, int end) {
    PC_CHECK_MSG(static_cast<int>(layers.size()) == n_layers_,
                 "paged append_copy_q8 layer-count mismatch");
    PC_CHECK(begin >= 0 && begin <= end &&
             end <= static_cast<int>(src_pos.size()));
    PC_CHECK_MSG(pool_->page_bytes_q8() ==
                     static_cast<size_t>(pool_->page_tokens()) *
                         q8_layout().stride(),
                 "pool q8 page geometry does not match Q8TokenLayout");
    enable_q8();
    const Q8TokenLayout layout = q8_layout();
    for (int t = begin; t < end; ++t) {
      if (tail_page_ == kInvalidPage ||
          tail_kind_ != PagedKVPool::Kind::kQ8 ||
          tail_used_ == pool_->page_tokens()) {
        // Abandoning a partially-filled tail of another kind leaves
        // interior slack.
        if (tail_page_ != kInvalidPage &&
            tail_kind_ != PagedKVPool::Kind::kQ8 &&
            tail_used_ < pool_->page_tokens()) {
          packed_ = false;
        }
        tail_page_ = pool_->allocate_q8();
        pages_.push_back(tail_page_);
        tail_kind_ = PagedKVPool::Kind::kQ8;
        tail_used_ = 0;
      }
      int8_t* slot = pool_->data_q8(tail_page_) +
                     static_cast<size_t>(tail_used_) * layout.stride();
      float* sc = layout.scales(slot);
      for (int l = 0; l < n_layers_; ++l) {
        const Q8Layer& src = layers[static_cast<size_t>(l)];
        std::memcpy(slot + layout.k_off(l),
                    src.k.data() + static_cast<size_t>(t) * kv_dim_,
                    static_cast<size_t>(kv_dim_));
        std::memcpy(slot + layout.v_off(l),
                    src.v.data() + static_cast<size_t>(t) * kv_dim_,
                    static_cast<size_t>(kv_dim_));
        sc[layout.k_scale_idx(l)] = src.k_scales[static_cast<size_t>(t)];
        sc[layout.v_scale_idx(l)] = src.v_scales[static_cast<size_t>(t)];
      }
      const int p = src_pos[static_cast<size_t>(t)];
      publish_q8_rows(tail_page_, tail_used_, 1, &p);
      ++tail_used_;
    }
  }

  // Materializes tokens [begin, end) of a module's Q4_0 payload into q4
  // pages — the sub-byte analog of append_copy_q8. Each token's slot copies
  // the per-layer packed nibble rows plus their per-block scale arrays
  // (Q4TokenLayout). Same immutability contract as q8 renditions.
  void append_copy_q4(const std::vector<Q4Layer>& layers,
                      std::span<const int> src_pos, int begin, int end) {
    PC_CHECK_MSG(static_cast<int>(layers.size()) == n_layers_,
                 "paged append_copy_q4 layer-count mismatch");
    PC_CHECK(begin >= 0 && begin <= end &&
             end <= static_cast<int>(src_pos.size()));
    PC_CHECK_MSG(pool_->page_bytes_q4() ==
                     static_cast<size_t>(pool_->page_tokens()) *
                         q4_layout().stride(),
                 "pool q4 page geometry does not match Q4TokenLayout");
    enable_q4();
    const Q4TokenLayout layout = q4_layout();
    const size_t row_bytes = layout.row_bytes();
    const size_t blocks = static_cast<size_t>(layout.blocks());
    for (int t = begin; t < end; ++t) {
      if (tail_page_ == kInvalidPage ||
          tail_kind_ != PagedKVPool::Kind::kQ4 ||
          tail_used_ == pool_->page_tokens()) {
        if (tail_page_ != kInvalidPage &&
            tail_kind_ != PagedKVPool::Kind::kQ4 &&
            tail_used_ < pool_->page_tokens()) {
          packed_ = false;
        }
        tail_page_ = pool_->allocate_q4();
        pages_.push_back(tail_page_);
        tail_kind_ = PagedKVPool::Kind::kQ4;
        tail_used_ = 0;
      }
      uint8_t* slot = pool_->data_q4(tail_page_) +
                      static_cast<size_t>(tail_used_) * layout.stride();
      float* sc = layout.scales(slot);
      for (int l = 0; l < n_layers_; ++l) {
        const Q4Layer& src = layers[static_cast<size_t>(l)];
        std::memcpy(slot + layout.k_off(l),
                    src.k.data() + static_cast<size_t>(t) * row_bytes,
                    row_bytes);
        std::memcpy(slot + layout.v_off(l),
                    src.v.data() + static_cast<size_t>(t) * row_bytes,
                    row_bytes);
        std::memcpy(sc + layout.k_scale_idx(l),
                    src.k_scales.data() + static_cast<size_t>(t) * blocks,
                    blocks * sizeof(float));
        std::memcpy(sc + layout.v_scale_idx(l),
                    src.v_scales.data() + static_cast<size_t>(t) * blocks,
                    blocks * sizeof(float));
      }
      const int p = src_pos[static_cast<size_t>(t)];
      publish_q4_rows(tail_page_, tail_used_, 1, &p);
      ++tail_used_;
    }
  }

  // Attaches another paged cache's tokens (§3.4 sharing): full pages by
  // reference; a trailing partial fp32 page becomes a COW duplicate whose
  // free slots become this cache's tail. A trailing partial *quantized*
  // page (q8 or q4) is attached read-only instead (quantized pages are
  // immutable — no COW exists for them); its free slots are wasted padding
  // and the next private append starts a fresh fp32 page. The source must
  // be packed — built solely by
  // append_copy/append_copy_q8/append_copy_q4/append_tokens, so token t
  // lives in page
  // t / P — which module renditions are by construction. The attached rows
  // are read-only here.
  void append_shared(const PagedKVCache& src) {
    PC_CHECK_MSG(src.pool_ == pool_, "append_shared across pools");
    PC_CHECK_MSG(src.n_layers_ == n_layers_ && src.kv_dim_ == kv_dim_,
                 "paged append_shared geometry mismatch");
    PC_CHECK_MSG(src.packed_,
                 "append_shared source must be packed (a module rendition, "
                 "not a composite request cache)");
    packed_ = false;  // our pages now carry interior slack
    const int per_page = pool_->page_tokens();
    const int full = src.size() / per_page;
    const int rem = src.size() % per_page;
    const auto attach = [&](int pi, int n_slots) {
      const PageId id = src.pages_[static_cast<size_t>(pi)];
      pool_->retain(id);
      pages_.push_back(id);
      ++shared_pages_;
      const int* pos = src.pos_ids_.data() + pi * per_page;
      if (pool_->is_q8(id)) {
        publish_q8_rows(id, 0, n_slots, pos);
      } else if (pool_->is_q4(id)) {
        publish_q4_rows(id, 0, n_slots, pos);
      } else {
        publish_rows(id, 0, n_slots, pos);
      }
    };
    for (int pi = 0; pi < full; ++pi) attach(pi, per_page);
    // Any previous private tail is closed (its free slots become padding
    // that no row table entry points at — wasted slots, never garbage rows).
    tail_page_ = kInvalidPage;
    tail_used_ = 0;
    tail_kind_ = PagedKVPool::Kind::kFp32;
    if (rem > 0) {
      const PageId id = src.pages_[static_cast<size_t>(full)];
      if (pool_->is_q8(id) || pool_->is_q4(id)) {
        // Read-only attach; slack stays unused and the tail stays closed.
        attach(full, rem);
      } else {
        pool_->retain(id);
        // src still holds the page, so refcount >= 2 and make_writable
        // always duplicates — consuming the retain above and returning a
        // private copy this cache's suffix continues filling.
        const PageId mine = pool_->make_writable(id);
        pages_.push_back(mine);
        publish_rows(mine, 0, rem, src.pos_ids_.data() + full * per_page);
        tail_page_ = mine;
        tail_used_ = rem;
      }
    }
    writable_from_ = size();
  }

  // Appends writable token slots (uncached prompt / decode rows) into the
  // private tail, allocating fresh zero-filled pages as needed. Returns the
  // index of the first new token. Private rows are always fp32 — the decode
  // tail is written token by token, which is exactly the case quantization
  // would thrash on — so a quantized tail (only possible mid-rendition)
  // closes and a fresh fp32 page starts.
  int append_tokens(std::span<const int> new_pos_ids) {
    const int first = size();
    for (const int p : new_pos_ids) {
      if (tail_page_ == kInvalidPage ||
          tail_kind_ != PagedKVPool::Kind::kFp32 ||
          tail_used_ == pool_->page_tokens()) {
        // Abandoning a partially-filled quantized tail leaves interior
        // slack.
        if (tail_page_ != kInvalidPage &&
            tail_kind_ != PagedKVPool::Kind::kFp32 &&
            tail_used_ < pool_->page_tokens()) {
          packed_ = false;
        }
        tail_page_ = pool_->allocate();
        pages_.push_back(tail_page_);
        tail_used_ = 0;
        tail_kind_ = PagedKVPool::Kind::kFp32;
      }
      publish_rows(tail_page_, tail_used_, 1, &p);
      ++tail_used_;
    }
    return first;
  }

  const float* k_row(int layer, int token) const {
    return k_rows_[checked_layer(layer)][checked_token(token)];
  }
  const float* v_row(int layer, int token) const {
    return v_rows_[checked_layer(layer)][checked_token(token)];
  }

  // Raw per-layer row-pointer tables (size() entries) for the gathered
  // attention kernel. When has_q8(), entries for quantized tokens are null
  // here and live in the q8 tables below instead.
  const float* const* k_row_table(int layer) const {
    return k_rows_[checked_layer(layer)].data();
  }
  const float* const* v_row_table(int layer) const {
    return v_rows_[checked_layer(layer)].data();
  }

  // Whether any token row is quantized; if so the attention caller must use
  // attn_fused_q8_gather with the four tables below (null/0 entries mark
  // fp32 tokens).
  bool has_q8() const { return has_q8_; }
  const int8_t* const* k8_row_table(int layer) const {
    PC_CHECK_MSG(has_q8_, "no q8 rows in this cache");
    return k8_rows_[checked_layer(layer)].data();
  }
  const int8_t* const* v8_row_table(int layer) const {
    PC_CHECK_MSG(has_q8_, "no q8 rows in this cache");
    return v8_rows_[checked_layer(layer)].data();
  }
  const float* k_scale_table(int layer) const {
    PC_CHECK_MSG(has_q8_, "no q8 rows in this cache");
    return k_scales_[checked_layer(layer)].data();
  }
  const float* v_scale_table(int layer) const {
    PC_CHECK_MSG(has_q8_, "no q8 rows in this cache");
    return v_scales_[checked_layer(layer)].data();
  }

  // Whether any token row is Q4_0; if so the attention caller must use
  // attn_fused_q4_gather with the four tables below (null entries mark
  // other-format tokens). Scale tables hold POINTERS to per-block arrays.
  bool has_q4() const { return has_q4_; }
  const uint8_t* const* k4_row_table(int layer) const {
    PC_CHECK_MSG(has_q4_, "no q4 rows in this cache");
    return k4_rows_[checked_layer(layer)].data();
  }
  const uint8_t* const* v4_row_table(int layer) const {
    PC_CHECK_MSG(has_q4_, "no q4 rows in this cache");
    return v4_rows_[checked_layer(layer)].data();
  }
  const float* const* k4_scale_table(int layer) const {
    PC_CHECK_MSG(has_q4_, "no q4 rows in this cache");
    return k4_scales_[checked_layer(layer)].data();
  }
  const float* const* v4_scale_table(int layer) const {
    PC_CHECK_MSG(has_q4_, "no q4 rows in this cache");
    return v4_scales_[checked_layer(layer)].data();
  }

  // Writable access — private fp32 rows only. Rows at or past
  // writable_from_ live in pages this cache exclusively owns (fresh
  // allocations or its COW tail), so the const_cast is the cheap path to
  // the same storage the table already points at.
  float* k_row_mut(int layer, int token) {
    PC_CHECK_MSG(token >= writable_from_, "shared module rows are read-only");
    const float* row = k_rows_[checked_layer(layer)][checked_token(token)];
    PC_CHECK_MSG(row != nullptr, "quantized rows are read-only");
    return const_cast<float*>(row);
  }
  float* v_row_mut(int layer, int token) {
    PC_CHECK_MSG(token >= writable_from_, "shared module rows are read-only");
    const float* row = v_rows_[checked_layer(layer)][checked_token(token)];
    PC_CHECK_MSG(row != nullptr, "quantized rows are read-only");
    return const_cast<float*>(row);
  }

  // Footprint accounting. Shared pages are attached by reference (held
  // once pool-wide however many requests attach them); owned pages — COW
  // duplicates and private tails — are this cache's own footprint.
  int n_pages() const { return static_cast<int>(pages_.size()); }
  int shared_pages() const { return shared_pages_; }
  int owned_pages() const {
    return static_cast<int>(pages_.size()) - shared_pages_;
  }
  size_t owned_bytes() const {
    // Owned pages (COW duplicates, private tails) are always fp32:
    // quantized pages exist only as shared module renditions.
    return static_cast<size_t>(owned_pages()) * pool_->page_bytes();
  }

  // Total payload across this cache's page table, kind-aware (q8 pages
  // contribute their quantized size). Shared pages are counted once here
  // however many caches also reference them.
  size_t total_page_bytes() const {
    size_t b = 0;
    for (PageId id : pages_) b += pool_->page_bytes(id);
    return b;
  }

  // Whether another cache still references any of this cache's pages (a
  // pool refcount above 1) — how the batch scheduler tells a module
  // rendition some active request has attached from one it can release.
  bool pages_shared() const {
    for (PageId id : pages_) {
      if (pool_->refcount(id) > 1) return true;
    }
    return false;
  }

 private:
  size_t token_stride() const {
    return static_cast<size_t>(2) * n_layers_ * kv_dim_;
  }
  Q8TokenLayout q8_layout() const { return Q8TokenLayout{n_layers_, kv_dim_}; }
  Q4TokenLayout q4_layout() const { return Q4TokenLayout{n_layers_, kv_dim_}; }

  // Switches the cache into mixed-format mode: the q8 tables are created
  // and backfilled with null/0 entries for every already-published fp32
  // token, so all tables stay index-aligned with pos_ids_.
  void enable_q8() {
    if (has_q8_) return;
    has_q8_ = true;
    const size_t n = pos_ids_.size();
    k8_rows_.assign(static_cast<size_t>(n_layers_), {});
    v8_rows_.assign(static_cast<size_t>(n_layers_), {});
    k_scales_.assign(static_cast<size_t>(n_layers_), {});
    v_scales_.assign(static_cast<size_t>(n_layers_), {});
    for (int l = 0; l < n_layers_; ++l) {
      k8_rows_[static_cast<size_t>(l)].assign(n, nullptr);
      v8_rows_[static_cast<size_t>(l)].assign(n, nullptr);
      k_scales_[static_cast<size_t>(l)].assign(n, 0.0f);
      v_scales_[static_cast<size_t>(l)].assign(n, 0.0f);
    }
  }

  // q4 analog of enable_q8.
  void enable_q4() {
    if (has_q4_) return;
    has_q4_ = true;
    const size_t n = pos_ids_.size();
    k4_rows_.assign(static_cast<size_t>(n_layers_), {});
    v4_rows_.assign(static_cast<size_t>(n_layers_), {});
    k4_scales_.assign(static_cast<size_t>(n_layers_), {});
    v4_scales_.assign(static_cast<size_t>(n_layers_), {});
    for (int l = 0; l < n_layers_; ++l) {
      k4_rows_[static_cast<size_t>(l)].assign(n, nullptr);
      v4_rows_[static_cast<size_t>(l)].assign(n, nullptr);
      k4_scales_[static_cast<size_t>(l)].assign(n, nullptr);
      v4_scales_[static_cast<size_t>(l)].assign(n, nullptr);
    }
  }

  void pad_q4_tables(int layer, size_t n) {
    k4_rows_[static_cast<size_t>(layer)].insert(
        k4_rows_[static_cast<size_t>(layer)].end(), n, nullptr);
    v4_rows_[static_cast<size_t>(layer)].insert(
        v4_rows_[static_cast<size_t>(layer)].end(), n, nullptr);
    k4_scales_[static_cast<size_t>(layer)].insert(
        k4_scales_[static_cast<size_t>(layer)].end(), n, nullptr);
    v4_scales_[static_cast<size_t>(layer)].insert(
        v4_scales_[static_cast<size_t>(layer)].end(), n, nullptr);
  }

  // Appends pointers for `n` consecutive slots of `id` starting at
  // `first_slot` to every layer's row table, plus their position ids.
  void publish_rows(PageId id, int first_slot, int n, const int* pos) {
    const float* base = pool_->data(id);
    for (int l = 0; l < n_layers_; ++l) {
      auto& kt = k_rows_[static_cast<size_t>(l)];
      auto& vt = v_rows_[static_cast<size_t>(l)];
      for (int s = first_slot; s < first_slot + n; ++s) {
        const float* k = base + static_cast<size_t>(s) * token_stride() +
                         static_cast<size_t>(l) * 2 * kv_dim_;
        kt.push_back(k);
        vt.push_back(k + kv_dim_);
      }
      if (has_q8_) {  // keep the q8 tables index-aligned
        k8_rows_[static_cast<size_t>(l)].insert(
            k8_rows_[static_cast<size_t>(l)].end(), static_cast<size_t>(n),
            nullptr);
        v8_rows_[static_cast<size_t>(l)].insert(
            v8_rows_[static_cast<size_t>(l)].end(), static_cast<size_t>(n),
            nullptr);
        k_scales_[static_cast<size_t>(l)].insert(
            k_scales_[static_cast<size_t>(l)].end(), static_cast<size_t>(n),
            0.0f);
        v_scales_[static_cast<size_t>(l)].insert(
            v_scales_[static_cast<size_t>(l)].end(), static_cast<size_t>(n),
            0.0f);
      }
      if (has_q4_) pad_q4_tables(l, static_cast<size_t>(n));
    }
    pos_ids_.insert(pos_ids_.end(), pos, pos + n);
  }

  // q8 counterpart of publish_rows: publishes int8 row pointers and their
  // per-row scales, with null entries in the fp32 tables.
  void publish_q8_rows(PageId id, int first_slot, int n, const int* pos) {
    enable_q8();
    const Q8TokenLayout layout = q8_layout();
    const int8_t* base = pool_->data_q8(id);
    for (int l = 0; l < n_layers_; ++l) {
      auto& kt = k8_rows_[static_cast<size_t>(l)];
      auto& vt = v8_rows_[static_cast<size_t>(l)];
      auto& ks = k_scales_[static_cast<size_t>(l)];
      auto& vs = v_scales_[static_cast<size_t>(l)];
      for (int s = first_slot; s < first_slot + n; ++s) {
        const int8_t* slot = base + static_cast<size_t>(s) * layout.stride();
        kt.push_back(slot + layout.k_off(l));
        vt.push_back(slot + layout.v_off(l));
        const float* sc = layout.scales(slot);
        ks.push_back(sc[layout.k_scale_idx(l)]);
        vs.push_back(sc[layout.v_scale_idx(l)]);
      }
      k_rows_[static_cast<size_t>(l)].insert(
          k_rows_[static_cast<size_t>(l)].end(), static_cast<size_t>(n),
          nullptr);
      v_rows_[static_cast<size_t>(l)].insert(
          v_rows_[static_cast<size_t>(l)].end(), static_cast<size_t>(n),
          nullptr);
      if (has_q4_) pad_q4_tables(l, static_cast<size_t>(n));
    }
    pos_ids_.insert(pos_ids_.end(), pos, pos + n);
  }

  // q4 counterpart of publish_rows: publishes packed-nibble row pointers
  // and per-block scale-array pointers, with null entries in the fp32 (and
  // any q8) tables.
  void publish_q4_rows(PageId id, int first_slot, int n, const int* pos) {
    enable_q4();
    const Q4TokenLayout layout = q4_layout();
    const uint8_t* base = pool_->data_q4(id);
    for (int l = 0; l < n_layers_; ++l) {
      auto& kt = k4_rows_[static_cast<size_t>(l)];
      auto& vt = v4_rows_[static_cast<size_t>(l)];
      auto& ks = k4_scales_[static_cast<size_t>(l)];
      auto& vs = v4_scales_[static_cast<size_t>(l)];
      for (int s = first_slot; s < first_slot + n; ++s) {
        const uint8_t* slot = base + static_cast<size_t>(s) * layout.stride();
        kt.push_back(slot + layout.k_off(l));
        vt.push_back(slot + layout.v_off(l));
        const float* sc = layout.scales(slot);
        ks.push_back(sc + layout.k_scale_idx(l));
        vs.push_back(sc + layout.v_scale_idx(l));
      }
      k_rows_[static_cast<size_t>(l)].insert(
          k_rows_[static_cast<size_t>(l)].end(), static_cast<size_t>(n),
          nullptr);
      v_rows_[static_cast<size_t>(l)].insert(
          v_rows_[static_cast<size_t>(l)].end(), static_cast<size_t>(n),
          nullptr);
      if (has_q8_) {
        k8_rows_[static_cast<size_t>(l)].insert(
            k8_rows_[static_cast<size_t>(l)].end(), static_cast<size_t>(n),
            nullptr);
        v8_rows_[static_cast<size_t>(l)].insert(
            v8_rows_[static_cast<size_t>(l)].end(), static_cast<size_t>(n),
            nullptr);
        k_scales_[static_cast<size_t>(l)].insert(
            k_scales_[static_cast<size_t>(l)].end(), static_cast<size_t>(n),
            0.0f);
        v_scales_[static_cast<size_t>(l)].insert(
            v_scales_[static_cast<size_t>(l)].end(), static_cast<size_t>(n),
            0.0f);
      }
    }
    pos_ids_.insert(pos_ids_.end(), pos, pos + n);
  }

  size_t checked_layer(int layer) const {
    PC_CHECK_MSG(layer >= 0 && layer < n_layers_, "layer out of range");
    return static_cast<size_t>(layer);
  }
  size_t checked_token(int token) const {
    PC_CHECK_MSG(token >= 0 && token < size(),
                 "token " << token << " out of range " << size());
    return static_cast<size_t>(token);
  }

  PagedKVPool* pool_;
  int n_layers_;
  int kv_dim_;
  std::vector<PageId> pages_;  // in token order; released on destruction
  int shared_pages_ = 0;
  int writable_from_ = 0;  // first row k_row_mut may touch
  bool packed_ = true;     // token t in page t / page_tokens (no slack)
  PageId tail_page_ = kInvalidPage;  // private page with free slots
  int tail_used_ = 0;
  // Tail page kind (quantized only mid-rendition build).
  PagedKVPool::Kind tail_kind_ = PagedKVPool::Kind::kFp32;
  bool has_q8_ = false;
  bool has_q4_ = false;
  std::vector<int> pos_ids_;
  std::vector<std::vector<const float*>> k_rows_;  // [layer][token]
  std::vector<std::vector<const float*>> v_rows_;
  // Mixed-format tables, index-aligned with the fp32 tables when enabled:
  // exactly one of k_rows_[l][t] / k8_rows_[l][t] / k4_rows_[l][t] is
  // non-null per token.
  std::vector<std::vector<const int8_t*>> k8_rows_;
  std::vector<std::vector<const int8_t*>> v8_rows_;
  std::vector<std::vector<float>> k_scales_;  // [layer][token], 0 for fp32
  std::vector<std::vector<float>> v_scales_;
  std::vector<std::vector<const uint8_t*>> k4_rows_;  // packed Q4_0 rows
  std::vector<std::vector<const uint8_t*>> v4_rows_;
  std::vector<std::vector<const float*>> k4_scales_;  // per-block arrays
  std::vector<std::vector<const float*>> v4_scales_;
};

}  // namespace pc
