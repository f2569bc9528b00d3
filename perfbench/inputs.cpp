// Workload inputs, all made by the program's own generators (src/eval)
// from the run's --seed. See README.md for the shapes and why each
// workload exists.
#include <algorithm>
#include <cmath>
#include <sstream>

#include "bench.h"
#include "common/error.h"
#include "common/rng.h"
#include "eval/workload.h"
#include "model/config.h"
#include "model/induction.h"
#include "pml/prompt_builder.h"

namespace perfbench {

using namespace pc;

namespace {

// Random weights are part of the program under test, not of the inputs:
// every workload on llama_tiny uses the same weights whatever the seed.
constexpr uint64_t kModelSeed = 42;
// The session fault's witness scripts use generator inputs fixed
// independently of --seed, so the number of turns the fault breaks is the
// same in every run (README: "Named fault").
constexpr uint64_t kFixedSessionSeed = 0xfa017ULL;

uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::vector<double> cdf_from(const std::vector<double>& weights) {
  std::vector<double> cdf(weights.size());
  double total = 0;
  for (double w : weights) total += w;
  double acc = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i] / total;
    cdf[i] = acc;
  }
  cdf.back() = 1.0;
  return cdf;
}

// The question text LatencyWorkload put into a prompt (the prompt's last
// text line).
std::string question_of(const std::string& prompt_pml) {
  const size_t end = prompt_pml.rfind("\n</prompt>");
  const size_t begin = prompt_pml.rfind("/>\n", end);
  PC_CHECK(end != std::string::npos && begin != std::string::npos);
  return prompt_pml.substr(begin + 3, end - begin - 3);
}

// Builds `n_schemas` schemas of `spec` and `per_schema` distinct prompts
// over each (every prompt imports all of its schema's documents, then asks
// a fresh generator-made question).
void latency_traffic(LatencyWorkload& gen, const DatasetSpec& spec,
                     int n_schemas, int per_schema, double scale,
                     Traffic& t) {
  DatasetSpec qspec = spec;
  qspec.name = spec.name + "-q";
  qspec.latency_n_docs = 1;
  for (int s = 0; s < n_schemas; ++s) {
    const LatencySample sample = gen.make_sample(spec, s, scale);
    t.schemas.push_back(sample.schema_pml);
    for (int q = 0; q < per_schema; ++q) {
      const std::string question =
          question_of(gen.make_sample(qspec, s * per_schema + q, 0.01)
                          .prompt_pml);
      pml::PromptBuilder prompt(spec.name + "-lat-" + std::to_string(s));
      for (int d = 0; d < spec.latency_n_docs; ++d) {
        prompt.import("doc" + std::to_string(d));
      }
      prompt.text(question);
      t.prompts.push_back(prompt.str());
      t.questions.push_back(question);
    }
  }
}

ModelConfig llama_config() {
  return ModelConfig::llama_tiny(Vocab::basic_english().size(), 8192);
}

// Module working-set bytes of a traffic's schemas at the engine's fp32
// precision (cached tokens x per-token KV bytes).
size_t working_set_bytes(const Traffic& t, const ModelConfig& c) {
  size_t tokens = 0;
  for (const std::string& s : t.schemas) {
    size_t pos = 0;
    while ((pos = s.find("<module", pos)) != std::string::npos) {
      const size_t open = s.find('>', pos) + 1;
      const size_t close = s.find("</module>", open);
      tokens += t.tokenizer->encode(s.substr(open, close - open)).size();
      pos = close;
    }
  }
  return tokens * 2 * static_cast<size_t>(c.n_layers) *
         static_cast<size_t>(c.kv_dim()) * sizeof(float);
}

struct Fact {
  std::string key;
  std::string values;  // space-separated value sequence
};

// Facts planted by AccuracyWorkload: "qNN aNN aNN ." runs in module text.
std::vector<Fact> planted_facts(const std::string& schema_pml) {
  std::istringstream words(schema_pml);
  std::vector<Fact> facts;
  std::string w;
  Fact* open = nullptr;
  while (words >> w) {
    const size_t gt = w.rfind('>');
    if (gt != std::string::npos) w = w.substr(gt + 1);
    const size_t lt = w.find('<');
    if (lt != std::string::npos) w = w.substr(0, lt);
    if (w.size() == 3 && w[0] == 'q') {
      facts.push_back({w, ""});
      open = &facts.back();
    } else if (open != nullptr && w.size() == 3 && w[0] == 'a') {
      open->values += (open->values.empty() ? "" : " ") + w;
    } else {
      open = nullptr;
    }
  }
  return facts;
}

}  // namespace

int Traffic::pick(uint64_t i) const {
  const double u =
      static_cast<double>(mix64(seed * 0x100000001b3ULL + i) >> 11) *
      0x1.0p-53;
  return static_cast<int>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                          cdf.begin());
}

std::unique_ptr<SharedModuleStore> Traffic::make_store(
    const std::string& spill_dir) const {
  if (ram_cap_bytes == 0) return std::make_unique<SharedModuleStore>(0, 0);
  DiskTierConfig disk;
  disk.enabled = disk_tier;
  disk.dir = spill_dir;
  // RAM = device + host tiers (both are host memory on this CPU build).
  return std::make_unique<SharedModuleStore>(
      ram_cap_bytes / 2, ram_cap_bytes - ram_cap_bytes / 2, disk);
}

Inputs make_inputs(const std::string& workload, uint64_t seed) {
  Inputs in;
  Traffic& t = in.traffic;
  t.name = workload;
  t.seed = seed;
  t.gen.stop_tokens = {};  // every reply is exactly max_new_tokens long

  if (workload == "doc_qa" || workload == "chat" || workload == "tenants") {
    auto gen = std::make_shared<LatencyWorkload>(seed);
    in.owner = gen;
    t.tokenizer = &gen->tokenizer();
    t.build_model = [] { return Model::random(llama_config(), kModelSeed); };

    if (workload == "doc_qa") {
      // LongBench NarrativeQA shape at scale 0.3: 6 documents of 225
      // tokens (~1.4K cached), a 35-token question, an 8-token answer.
      latency_traffic(*gen, DatasetSpec::longbench8()[0], 8, 4, 0.3, t);
      t.cdf = cdf_from(std::vector<double>(t.prompts.size(), 1.0));
      t.gen.max_new_tokens = 8;
      t.reference_sample = 4;
    } else if (workload == "chat") {
      // One ~30-token system module, a ~60-token user message that no
      // other request shares, a 16-token answer.
      DatasetSpec spec = DatasetSpec::longbench8()[0];
      spec.name = "chat";
      spec.latency_n_docs = 1;
      spec.latency_doc_tokens = 30;
      spec.latency_question_tokens = 60;
      latency_traffic(*gen, spec, 4, 16, 1.0, t);
      t.cdf = cdf_from(std::vector<double>(t.prompts.size(), 1.0));
      t.gen.max_new_tokens = 16;
      t.server.batching = true;
      t.reference_sample = 16;
    } else {
      // 48 tenants with 4 short documents each under Zipf(0.8) schema
      // popularity; two questions per tenant. Lazy encodes, RAM capped at
      // a quarter of the module working set, disk tier and prefetch on.
      DatasetSpec spec = DatasetSpec::longbench8()[0];
      spec.name = "tenant";
      spec.latency_n_docs = 4;
      spec.latency_doc_tokens = 64;
      spec.latency_question_tokens = 20;
      latency_traffic(*gen, spec, 48, 2, 1.0, t);
      std::vector<double> w;
      for (size_t p = 0; p < t.prompts.size(); ++p) {
        w.push_back(std::pow(static_cast<double>(p / 2 + 1), -0.8));
      }
      t.cdf = cdf_from(w);
      t.gen.max_new_tokens = 16;
      t.server.batching = true;
      t.server.engine.eager_encode = false;
      t.server.prefetch = true;
      t.ram_cap_bytes = working_set_bytes(t, llama_config()) / 4;
      t.disk_tier = true;
      t.reference_sample = 16;
    }
    t.server.schemas = t.schemas;
    return in;
  }

  PC_CHECK_MSG(workload == "session", "unknown workload " << workload);
  auto seeded = std::make_shared<AccuracyWorkload>(seed);
  auto fixed = std::make_shared<AccuracyWorkload>(kFixedSessionSeed);
  in.owner = std::make_shared<std::pair<std::shared_ptr<AccuracyWorkload>,
                                        std::shared_ptr<AccuracyWorkload>>>(
      seeded, fixed);
  // Both generators share one closed vocabulary; either tokenizer serves.
  t.tokenizer = &seeded->tokenizer();
  const int vocab = seeded->vocab().size();
  t.build_model = [vocab] {
    InductionModelOptions o;
    o.vocab_size = vocab;
    return make_induction_model(o);
  };
  in.session = std::make_unique<SessionInputs>();
  SessionInputs& s = *in.session;

  DatasetSpec spec;
  spec.metric = TaskMetric::kF1;
  spec.n_docs = 2;
  spec.facts_per_doc = 4;
  spec.answer_len = 2;
  spec.filler_per_doc = 40;
  Rng order(seed ^ 0x5e55ULL);
  // Per round: three seeded sessions asking four distinct questions, and
  // one fixed-input session whose script repeats two questions.
  for (int k = 0; k < 4; ++k) {
    const bool witness = k == 3;
    spec.name = witness ? "witness" : "chat";
    const AccuracySample sample =
        (witness ? *fixed : *seeded).make_sample(spec, witness ? 0 : k);
    std::vector<Fact> facts = planted_facts(sample.schema_pml);
    PC_CHECK_MSG(facts.size() == 8, "expected 8 planted facts");
    std::vector<int> script;
    if (witness) {
      script = {0, 1, 0, 2, 1, 3};
    } else {
      std::vector<int> idx = {0, 1, 2, 3, 4, 5, 6, 7};
      order.shuffle(idx);
      script.assign(idx.begin(), idx.begin() + 4);
    }
    const std::string schema_name =
        spec.name + "-" + std::to_string(witness ? 0 : k);
    SessionScript sc;
    pml::PromptBuilder prompt(schema_name);
    prompt.import("doc0").import("doc1");
    sc.prompt = prompt.str();
    std::vector<bool> seen(facts.size(), false);
    bool repeated = false;
    for (int f : script) {
      repeated = repeated || seen[static_cast<size_t>(f)];
      seen[static_cast<size_t>(f)] = true;
      sc.turns.push_back("question: " + facts[static_cast<size_t>(f)].key);
      sc.expected.push_back(facts[static_cast<size_t>(f)].values);
      sc.after_repeat.push_back(repeated);
    }
    s.schemas.push_back(sample.schema_pml);
    // The layer replay serves each session's first question as a prompt.
    prompt.text(sc.turns[0]);
    t.prompts.push_back(prompt.str());
    t.questions.push_back(sc.turns[0]);
    s.round.push_back(std::move(sc));
  }
  t.schemas = s.schemas;
  t.server.schemas = t.schemas;
  t.cdf = cdf_from(std::vector<double>(t.prompts.size(), 1.0));
  t.gen.max_new_tokens = spec.answer_len;
  return in;
}

}  // namespace perfbench
