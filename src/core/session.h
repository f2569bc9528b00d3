// Multi-turn conversations over a cached context.
//
// A session assembles its prompt's cached modules once, then keeps the
// sequence KV cache alive across turns: each user message and assistant
// reply is appended incrementally (the classic single-prompt KV-Cache reuse
// of §2.2) on top of the inter-request module reuse of Prompt Cache. The
// standing context — documents, instructions — costs its memcpy once per
// session instead of once per turn.
//
// Turns are wrapped with the model family's chat template (§3.2.3).
//
// The session's history is the transcript a re-prefill would see, reply
// terminators included: the token that ended each reply (the stop token, or
// the last token of a matched stop sequence) stays in the history, so a
// repeated question is answered like a fresh one instead of running on past
// the old answer. Generation never feeds back its last sampled token, so
// that token — with the template's assistant suffix in wrapped mode — is
// kept pending and rides the front of the next turn's single forward: a
// steady raw turn costs 1 + (reply tokens) forward passes. Wrapped turns
// keep the suffix as their only terminator; the model's own stop token is
// not recorded before it.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"

namespace pc {

class ChatSession {
 public:
  // Binds and assembles `prompt_pml` (its schema must already be loaded in
  // the engine). The prompt's free text, if any, becomes standing context.
  // wrap_turns renders each turn through the model's chat template; pass
  // false to append raw text (models without conversation formatting).
  ChatSession(PromptCacheEngine& engine, std::string_view prompt_pml,
              bool wrap_turns = true);

  struct TurnResult {
    std::string text;
    std::vector<TokenId> tokens;
    double latency_ms = 0;
    // User-turn tokens appended to the history (the previous reply's
    // pending tail, forwarded in the same pass, is not counted).
    int input_tokens = 0;
  };

  // Appends one user turn and generates the assistant reply.
  TurnResult send(std::string_view user_text,
                  const GenerateOptions& options = {});

  int turns() const { return turns_; }
  // Tokens of history: those in the cache plus the pending tail.
  int context_tokens() const {
    return cache_.size() + static_cast<int>(pending_.size());
  }

  // Positions left before the model's max_pos is exhausted.
  int remaining_positions() const {
    return engine_->model().config().max_pos - next_pos_ -
           static_cast<int>(pending_.size());
  }

 private:
  PromptCacheEngine* engine_;
  KVCache cache_;
  bool wrap_turns_;
  // The assistant block's closing tokens (empty for raw turns).
  std::vector<TokenId> suffix_tokens_;
  // History not yet in cache_, at positions next_pos_ onwards.
  std::vector<TokenId> pending_;
  int next_pos_ = 0;
  int turns_ = 0;
};

}  // namespace pc
