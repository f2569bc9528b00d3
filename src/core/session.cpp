#include "core/session.h"

#include <numeric>

#include "common/timer.h"

namespace pc {

ChatSession::ChatSession(PromptCacheEngine& engine,
                         std::string_view prompt_pml, bool wrap_turns)
    : engine_(&engine),
      cache_(engine.model().make_cache()),
      wrap_turns_(wrap_turns) {
  const pml::PromptBinding binding = engine.bind(prompt_pml);
  (void)engine.ensure_encoded(binding);
  (void)engine.assemble_and_prefill(binding, cache_, nullptr);
  // assemble added a <s> kickoff row at next_pos when the prompt had no
  // uncached content; account for it.
  const bool kickoff = binding.args.empty() && binding.texts.empty();
  next_pos_ = binding.next_pos + (kickoff ? 1 : 0);
  if (wrap_turns_) {
    const ChatTemplate tmpl(engine.model().config().chat_template);
    suffix_tokens_ =
        engine.tokenizer().encode(tmpl.wrap(ChatRole::kAssistant).suffix);
  }
}

ChatSession::TurnResult ChatSession::send(std::string_view user_text,
                                          const GenerateOptions& options) {
  WallTimer timer;
  const ChatTemplate tmpl(engine_->model().config().chat_template);

  // "user : <text>\n assistant-prefix" in the model family's format.
  const std::string turn_text =
      wrap_turns_ ? tmpl.render(ChatRole::kUser, user_text) +
                        tmpl.wrap(ChatRole::kAssistant).prefix
                  : std::string(user_text);
  const std::vector<TokenId> turn_tokens =
      engine_->tokenizer().encode(turn_text);
  PC_CHECK_MSG(!turn_tokens.empty(), "empty user turn");
  // The reply leaves at most one unfed token (plus the suffix) pending;
  // the strict bound keeps a position for it.
  PC_CHECK_MSG(next_pos_ + static_cast<int>(pending_.size() +
                                            turn_tokens.size() +
                                            suffix_tokens_.size()) +
                       options.max_new_tokens <
                   engine_->model().config().max_pos,
               "session position budget exhausted after "
                   << turns_ << " turns; start a new session");

  // The previous reply's pending tail and this user turn, in one forward.
  std::vector<TokenId> input = std::move(pending_);
  pending_.clear();
  input.insert(input.end(), turn_tokens.begin(), turn_tokens.end());
  std::vector<int> pos(input.size());
  std::iota(pos.begin(), pos.end(), next_pos_);
  const Tensor logits = engine_->model().forward(input, pos, cache_);
  next_pos_ += static_cast<int>(input.size());

  const int before_reply = cache_.size();
  TurnResult result;
  result.input_tokens = static_cast<int>(turn_tokens.size());
  Model::GenerateOutput gen =
      engine_->model().generate(logits, next_pos_, cache_, options);
  next_pos_ += cache_.size() - before_reply;

  // Generation never feeds back its last sampled token: the terminator, or
  // the last reply token when the reply was cut short. It stays in the
  // history, pending, except that a wrapped turn's suffix is its only
  // terminator.
  if (gen.unfed_token.has_value() &&
      !(wrap_turns_ && gen.finish_reason == FinishReason::kStopToken)) {
    pending_.push_back(*gen.unfed_token);
  }
  pending_.insert(pending_.end(), suffix_tokens_.begin(),
                  suffix_tokens_.end());

  result.tokens = std::move(gen.tokens);
  result.text = engine_->tokenizer().decode(result.tokens);
  result.latency_ms = timer.elapsed_ms();
  ++turns_;
  return result;
}

}  // namespace pc
