// Unit tests for the module store's placement policy on a one-shard
// SharedModuleStore (the store every engine built from capacities owns):
// device-first placement, LRU eviction, tier promotion, and clearing; plus
// the engine-owned store's configuration, union-sibling prefetch and
// pinning. Pin counting and pins blocking eviction are covered in
// test_shared_store.cpp.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "core/engine.h"
#include "core/shared_module_store.h"
#include "eval/workload.h"
#include "model/induction.h"

namespace pc {
namespace {

EncodedModule make_module(int n_tokens) {
  EncodedModule m;
  m.precision = StorePrecision::kFp32;
  m.n_tokens = n_tokens;
  m.kv_dim = 8;
  m.n_layers = 2;
  KVCache kv(2, 8);
  std::vector<int> pos(static_cast<size_t>(n_tokens));
  for (int i = 0; i < n_tokens; ++i) pos[static_cast<size_t>(i)] = i;
  kv.append_tokens(pos);
  m.kv32 = std::move(kv);
  m.text_row_ranges = {{0, n_tokens}};
  return m;
}

size_t module_bytes(int n_tokens) { return make_module(n_tokens).payload_bytes(); }

// One shard keeps LRU over the whole capacity; no disk tier, whatever the
// environment says.
SharedModuleStore one_shard_store(size_t device, size_t host) {
  return SharedModuleStore(device, host, DiskTierConfig{}, /*n_shards=*/1);
}

TEST(OneShardStore, PlacesDeviceFirstThenSpillsToHost) {
  SharedModuleStore store =
      one_shard_store(/*device=*/module_bytes(4), /*host=*/0);
  store.insert("a", make_module(4));
  auto a = store.find("a");
  ASSERT_TRUE(a);
  EXPECT_EQ(a.location(), ModuleLocation::kDeviceMemory);

  // Device is full but host has room: spill, don't evict — every module
  // stays resident (§4.1).
  store.insert("b", make_module(4));
  auto b = store.find("b");
  ASSERT_TRUE(b);
  EXPECT_EQ(b.location(), ModuleLocation::kHostMemory);
  EXPECT_TRUE(store.find("a"));
  EXPECT_EQ(store.stats().evictions, 0u);
}

TEST(OneShardStore, FindBumpsRecency) {
  // No host tier: the store must evict within the device tier, and LRU
  // order decides the victim.
  SharedModuleStore store = one_shard_store(module_bytes(4) * 2, /*host=*/1);
  store.insert("a", make_module(4));
  store.insert("b", make_module(4));
  // Touch "a" so "b" becomes the LRU victim.
  (void)store.find("a");
  store.insert("c", make_module(4));
  EXPECT_TRUE(store.find("a"));
  EXPECT_FALSE(store.find("b"));
  EXPECT_EQ(store.stats().evictions, 1u);
}

TEST(OneShardStore, PromoteMovesBetweenTiers) {
  // Device fits one module; the second spills to host.
  SharedModuleStore store = one_shard_store(module_bytes(4), 0);
  store.insert("hot", make_module(4));
  store.insert("cold", make_module(4));
  EXPECT_EQ(store.find("cold").location(), ModuleLocation::kHostMemory);

  // Promoting cold displaces hot, which demotes to host (nothing is lost).
  bool moved = false;
  ASSERT_TRUE(store.promote("cold", ModuleLocation::kDeviceMemory, &moved));
  EXPECT_TRUE(moved);
  EXPECT_EQ(store.find("cold").location(), ModuleLocation::kDeviceMemory);
  auto hot = store.find("hot");
  ASSERT_TRUE(hot);
  EXPECT_EQ(hot.location(), ModuleLocation::kHostMemory);
  EXPECT_EQ(store.stats().promotions, 1u);
  EXPECT_EQ(store.stats().demotions, 1u);
  EXPECT_EQ(store.stats().evictions, 0u);

  // No-op promote succeeds without a new promotion.
  ASSERT_TRUE(store.promote("cold", ModuleLocation::kDeviceMemory, &moved));
  EXPECT_FALSE(moved);
  EXPECT_EQ(store.stats().promotions, 1u);
  EXPECT_FALSE(store.promote("ghost", ModuleLocation::kDeviceMemory));
}

TEST(OneShardStore, PromoteRespectsPinsInTargetTier) {
  SharedModuleStore store = one_shard_store(module_bytes(4), 0);
  store.insert("pinned", make_module(4));
  ASSERT_TRUE(store.pin("pinned"));
  store.insert("other", make_module(4));  // spills to host
  EXPECT_FALSE(store.promote("other", ModuleLocation::kDeviceMemory));
  auto pinned = store.find("pinned");
  ASSERT_TRUE(pinned);
  EXPECT_EQ(pinned.location(), ModuleLocation::kDeviceMemory);
}

TEST(OneShardStore, ClearReleasesEverything) {
  SharedModuleStore store = one_shard_store(0, 0);
  store.insert("a", make_module(4));
  store.insert("b", make_module(8));
  store.clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.usage(ModuleLocation::kDeviceMemory).used_bytes, 0u);
  EXPECT_EQ(store.usage(ModuleLocation::kHostMemory).used_bytes, 0u);
  EXPECT_EQ(store.resident_bytes(), 0u);
}

// Engine-owned stores ignore PC_DISK_DIR: the disk tier is a serving
// configuration, chosen by whoever builds a shared store.
TEST(EngineOwnedStore, DiskTierStaysOffUnderPcDiskDir) {
  AccuracyWorkload workload(7);
  Model model = make_induction_model({workload.vocab().size(), 256});
  const char* prev = std::getenv("PC_DISK_DIR");
  const std::string saved = prev != nullptr ? prev : "";
  setenv("PC_DISK_DIR", ::testing::TempDir().c_str(), 1);
  PromptCacheEngine engine(model, workload.tokenizer());
  if (prev != nullptr) {
    setenv("PC_DISK_DIR", saved.c_str(), 1);
  } else {
    unsetenv("PC_DISK_DIR");
  }
  EXPECT_FALSE(engine.store().disk_enabled());
  EXPECT_EQ(engine.store().n_shards(), 1u);
}

// device_capacity_bytes is one LRU budget, not split into shard slices: a
// capacity of exactly two modules keeps both on the device tier (an 8-way
// split would reject each module as larger than its slice).
TEST(EngineOwnedStore, CapacityOfTwoModulesHoldsBothOnDevice) {
  AccuracyWorkload workload(7);
  Model model = make_induction_model({workload.vocab().size(), 256});
  const char* schema = R"(
    <schema name="two">
      <module name="d1">w03 q06 a12 . w04 w05</module>
      <module name="d2">w06 q07 a13 . w07 w08</module>
    </schema>)";

  PromptCacheEngine probe(model, workload.tokenizer());
  probe.load_schema(schema);
  size_t both = 0;
  probe.store().for_each(
      [&](const std::string&, const EncodedModule& m, ModuleLocation) {
        both += m.payload_bytes();
      });
  ASSERT_EQ(probe.store().size(), 2u);

  EngineConfig cfg;
  cfg.device_capacity_bytes = both;
  cfg.host_capacity_bytes = 1;  // host tier closed to module-sized payloads
  PromptCacheEngine engine(model, workload.tokenizer(), cfg);
  engine.load_schema(schema);
  size_t on_device = 0;
  engine.store().for_each(
      [&](const std::string&, const EncodedModule&, ModuleLocation loc) {
        if (loc == ModuleLocation::kDeviceMemory) ++on_device;
      });
  EXPECT_EQ(on_device, 2u);
  EXPECT_EQ(engine.store().stats().evictions, 0u);

  SharedModuleStore split(both, 1, DiskTierConfig{},
                          SharedModuleStore::kDefaultShards);
  PromptCacheEngine split_engine(model, workload.tokenizer(), split, cfg);
  EXPECT_THROW(split_engine.load_schema(schema), CacheError);
}

// Engine-level: union-sibling prefetch pulls alternatives into the device
// tier after a serve that used one member.
TEST(EnginePrefetch, UnionSiblingsArePromoted) {
  AccuracyWorkload workload(7);
  Model model = make_induction_model({workload.vocab().size(), 256});

  const char* schema = R"(
    <schema name="u">
      <union>
        <module name="p0">w00 q05 a10 . w01 w02 w03 w04 w05 w06</module>
        <module name="p1">w07 q05 a11 . w08 w09 w10 w11 w12 w13</module>
        <module name="p2">w14 q05 a12 . w15 w16 w17 w18 w19 w20</module>
      </union>
    </schema>)";

  // Device tier fits ~one module, so the others start on the host.
  const size_t one_module =
      static_cast<size_t>(12) * model.kv_bytes_per_token();
  EngineConfig cfg;
  // Capacity math assumes fp32 module bytes; pin the precision so a q8
  // default (PC_KV_FORMAT=q8) doesn't fit every sibling on-device.
  cfg.precision = StorePrecision::kFp32;
  cfg.device_capacity_bytes = one_module;
  cfg.prefetch_union_siblings = true;
  PromptCacheEngine engine(model, workload.tokenizer(), cfg);
  engine.load_schema(schema);

  GenerateOptions opts;
  opts.max_new_tokens = 2;
  opts.stop_tokens = {workload.stop_token()};
  (void)engine.serve(R"(<prompt schema="u"><p1/> question: q05</prompt>)",
                     opts);
  EXPECT_GT(engine.stats().sibling_prefetches, 0u);

  // A sibling now sits in device memory, so serving it pays no host bytes.
  const ServeResult r2 = engine.serve(
      R"(<prompt schema="u"><p2/> question: q05</prompt>)", opts);
  EXPECT_EQ(r2.ttft.bytes_from_host, 0u);
}

TEST(EnginePin, PinnedSystemModuleSurvivesPressure) {
  AccuracyWorkload workload(7);
  Model model = make_induction_model({workload.vocab().size(), 256});
  const size_t one_module =
      static_cast<size_t>(10) * model.kv_bytes_per_token();
  EngineConfig cfg;
  cfg.device_capacity_bytes = 2 * one_module;
  cfg.host_capacity_bytes = 1;
  cfg.eager_encode = false;
  PromptCacheEngine engine(model, workload.tokenizer(), cfg);
  engine.load_schema(R"(
    <schema name="p">
      <module name="sys">w00 w01 q05 a10 a11 . w02</module>
      <module name="d1">w03 q06 a12 . w04 w05</module>
      <module name="d2">w06 q07 a13 . w07 w08</module>
    </schema>)");
  engine.pin_module("p", "sys");

  GenerateOptions opts;
  opts.max_new_tokens = 3;
  opts.stop_tokens = {workload.stop_token()};
  (void)engine.serve(R"(<prompt schema="p"><sys/><d1/> question: q06</prompt>)",
                     opts);
  (void)engine.serve(R"(<prompt schema="p"><sys/><d2/> question: q07</prompt>)",
                     opts);
  // Through all the churn, the pinned system module was never re-encoded:
  // encodes = sys + d1 + d2 + at most one thrash re-encode of d1/d2.
  EXPECT_TRUE(engine.store().is_pinned("p::sys"));
  const ServeResult r = engine.serve(
      R"(<prompt schema="p"><sys/> question: q05</prompt>)", opts);
  EXPECT_EQ(r.text, "a10 a11");
}

}  // namespace
}  // namespace pc
