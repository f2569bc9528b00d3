// Tests for multi-turn chat sessions: cached-context reuse across turns,
// conversation memory (facts stated by the user are retrievable later),
// replies to repeated questions equal to the baseline's, and
// position-budget exhaustion.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/session.h"
#include "eval/workload.h"
#include "model/induction.h"

namespace pc {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  SessionTest()
      : workload_(7),
        model_(make_induction_model({workload_.vocab().size(), 384})),
        engine_(model_, workload_.tokenizer()) {
    engine_.load_schema(R"(
      <schema name="chat">
        <module name="doc1">w00 w01 q05 a10 a11 . w02</module>
        <module name="doc2">w03 w04 q06 a12 a13 . w05</module>
      </schema>)");
  }

  GenerateOptions answer_options() const {
    GenerateOptions o;
    o.max_new_tokens = 5;
    o.stop_tokens = {workload_.stop_token()};
    return o;
  }

  static constexpr const char* kPrompt =
      R"(<prompt schema="chat"><doc1/><doc2/></prompt>)";

  AccuracyWorkload workload_;
  Model model_;
  PromptCacheEngine engine_;
};

TEST_F(SessionTest, AnswersAcrossTurnsFromCachedContext) {
  ChatSession session(engine_, kPrompt, /*wrap_turns=*/false);
  const int base_context = session.context_tokens();
  EXPECT_GT(base_context, 0);

  const auto r1 = session.send("question: q05", answer_options());
  EXPECT_EQ(r1.text, "a10 a11");
  const auto r2 = session.send("question: q06", answer_options());
  EXPECT_EQ(r2.text, "a12 a13");
  EXPECT_EQ(session.turns(), 2);
  // The cache grew with the conversation, not with re-prefills.
  EXPECT_GT(session.context_tokens(), base_context);
  EXPECT_LT(session.context_tokens(), base_context + 64);
  // Exactly: each turn's tokens, its reply and the terminator that ended
  // the reply (the last one still pending, but history all the same).
  const int q05 = static_cast<int>(
      engine_.tokenizer().encode("question: q05").size());
  const int q06 = static_cast<int>(
      engine_.tokenizer().encode("question: q06").size());
  EXPECT_EQ(session.context_tokens(), base_context + q05 + 2 + 1 + q06 + 2 + 1);
}

// A session's history must equal a re-prefill of its transcript, reply
// terminators included: without them a repeated question runs on past the
// old answer ("a10 a11 question: q05 a10"). Every reply must equal the
// baseline's for the same question asked from scratch.
TEST_F(SessionTest, RepeatedQuestionsMatchBaseline) {
  auto expect_baseline = [&](ChatSession& session, const char* question,
                             const GenerateOptions& options) {
    SCOPED_TRACE(question);
    const auto reply = session.send(question, options);
    const ServeResult full = engine_.serve_baseline(
        std::string(R"(<prompt schema="chat"><doc1/><doc2/> )") + question +
            "</prompt>",
        options);
    EXPECT_EQ(reply.tokens, full.tokens);
  };
  ChatSession session(engine_, kPrompt, /*wrap_turns=*/false);
  for (const char* q : {"question: q05", "question: q06", "question: q05",
                        "question: q05", "question: q06"}) {
    expect_baseline(session, q, answer_options());
  }

  // Replies cut by a stop sequence: its last token ("." here) is the
  // terminator the history keeps. In a fresh session two such turns
  // outvote the document's own "a13 .", so a history without that
  // terminator would make the repeat run on.
  const Vocab& vocab = workload_.tokenizer().vocab();
  GenerateOptions by_sequence = answer_options();
  by_sequence.stop_tokens.clear();
  by_sequence.stop_sequences = {
      {*vocab.find_piece("a13"), *vocab.find_piece(".")}};
  ChatSession cut(engine_, kPrompt, /*wrap_turns=*/false);
  expect_baseline(cut, "question: q06", by_sequence);
  expect_baseline(cut, "question: q06", by_sequence);
  expect_baseline(cut, "question: q06", answer_options());

  // Wrapped turns: every reply must equal the baseline's over the rendered
  // transcript so far, in which the assistant suffix alone closes a reply
  // that hit the stop token (the stop token itself is not recorded), while
  // a reply cut by max_new_tokens or by a stop sequence keeps its last
  // token or that sequence ahead of the suffix. The plain template's suffix
  // is a newline, which this tokenizer turns into no token.
  const ChatTemplate tmpl(model_.config().chat_template);
  const ChatTemplate::Wrapping assistant = tmpl.wrap(ChatRole::kAssistant);
  GenerateOptions cut_short = answer_options();
  cut_short.max_new_tokens = 2;
  GenerateOptions by_answer = answer_options();
  by_answer.stop_sequences = {
      {*vocab.find_piece("a10"), *vocab.find_piece("a11")}};
  struct Turn {
    const char* question;
    GenerateOptions options;
    std::string kept;  // the matched stop sequence's text, if any
  };
  const std::vector<Turn> turns = {
      {"question: q05", answer_options(), ""},
      {"question: q06", answer_options(), ""},
      {"question: q05", answer_options(), ""},
      {"question: q05", cut_short, ""},
      {"question: q06", by_answer, " a10 a11"},
      {"question: q05", answer_options(), ""},
  };
  ChatSession wrapped(engine_, kPrompt, /*wrap_turns=*/true);
  const int base_context = wrapped.context_tokens();
  std::string transcript;
  std::vector<FinishReason> finishes;
  for (const Turn& turn : turns) {
    SCOPED_TRACE(transcript);
    const std::string user =
        tmpl.render(ChatRole::kUser, turn.question) + assistant.prefix;
    const auto reply = wrapped.send(turn.question, turn.options);
    const ServeResult full = engine_.serve_baseline(
        R"(<prompt schema="chat"><doc1/><doc2/> )" + transcript + user +
            "</prompt>",
        turn.options);
    EXPECT_EQ(reply.tokens, full.tokens);
    finishes.push_back(full.finish_reason);
    transcript += user + reply.text + turn.kept + assistant.suffix;
  }
  // The transcript covered each way a reply ends, and the history holds
  // exactly its tokens.
  for (FinishReason f : {FinishReason::kStopToken, FinishReason::kLength,
                         FinishReason::kStopSequence}) {
    EXPECT_NE(std::find(finishes.begin(), finishes.end(), f), finishes.end());
  }
  EXPECT_EQ(wrapped.context_tokens(),
            base_context + static_cast<int>(
                               engine_.tokenizer().encode(transcript).size()));
}

// Conversation memory: a fact the *user* states in one turn is retrievable
// in a later turn — it lives in the session's KV cache like everything
// else.
TEST_F(SessionTest, RemembersFactsFromEarlierTurns) {
  ChatSession session(engine_, kPrompt, /*wrap_turns=*/false);
  (void)session.send("w06 q09 a20 a21 . w07", answer_options());
  const auto reply = session.send("question: q09", answer_options());
  EXPECT_EQ(reply.text, "a20 a21");
}

TEST_F(SessionTest, TurnsAreCheapAfterTheFirstAssembly) {
  ChatSession session(engine_, kPrompt, /*wrap_turns=*/false);
  (void)session.send("question: q05", answer_options());  // assembly turn
  // A steady-state turn computes ~4 input tokens plus the decode steps; the
  // baseline pays the same decode but re-prefills the entire context, so it
  // must be slower end-to-end. Both sides now run in single-digit
  // milliseconds, so compare medians of 3 — a lone scheduler hiccup on one
  // sample must not decide the ordering.
  std::vector<double> turn_ms, base_ms;
  for (int i = 0; i < 3; ++i) {
    const auto r = session.send("question: q05", answer_options());
    EXPECT_LT(r.input_tokens, 10);
    turn_ms.push_back(r.latency_ms);
    const ServeResult full = engine_.serve_baseline(
        R"(<prompt schema="chat"><doc1/><doc2/> question: q05</prompt>)",
        answer_options());
    base_ms.push_back(full.ttft.total_ms() + full.decode_ms);
  }
  std::sort(turn_ms.begin(), turn_ms.end());
  std::sort(base_ms.begin(), base_ms.end());
  EXPECT_LT(turn_ms[1], base_ms[1]);
}

TEST_F(SessionTest, PositionBudgetIsEnforced) {
  // The induction model's max_pos is 384; long conversations must fail
  // loudly, not corrupt positions.
  ChatSession session(engine_, kPrompt, /*wrap_turns=*/false);
  GenerateOptions opts = answer_options();
  opts.max_new_tokens = 2;
  bool threw = false;
  try {
    for (int i = 0; i < 100; ++i) {
      (void)session.send("w08 w09 w10 w11 w12 w13 w14 w15", opts);
    }
  } catch (const ContractViolation& e) {
    threw = true;
    EXPECT_NE(std::string(e.what()).find("position budget"),
              std::string::npos);
  }
  EXPECT_TRUE(threw);
  EXPECT_GE(session.remaining_positions(), 0);
}

TEST_F(SessionTest, EmptyTurnRejectedWithoutTemplate) {
  ChatSession raw(engine_, kPrompt, /*wrap_turns=*/false);
  EXPECT_THROW(raw.send("", answer_options()), ContractViolation);
  // With template wrapping the role labels alone carry tokens.
  ChatSession wrapped(engine_, kPrompt, /*wrap_turns=*/true);
  const auto r = wrapped.send("", answer_options());
  EXPECT_GE(r.input_tokens, 1);
}

}  // namespace
}  // namespace pc
