// Verifies the theoretical framework of §5 against the paper's own tables:
// Figure 2 (k=3 code), Figure 3 (TTN/RTN/improvement), Figure 4 (k=5 code
// under the 8-transform subset), and the §5.2 minimal-subset analysis.
#include "core/block_code.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "bitstream/bitseq.h"

namespace asimt::core {
namespace {

using bits::BitSeq;

std::uint32_t word_from_figure(const char* figure) {
  const BitSeq seq = BitSeq::from_figure_string(figure);
  return static_cast<std::uint32_t>(seq.to_word(seq.size()));
}

TEST(DecodeBlock, PaperWorkedExample010) {
  // §5.1: block word 010 is restored from code word 000 via τ(x,y) = ~y.
  const std::uint32_t code = word_from_figure("000");
  const std::uint32_t word = word_from_figure("010");
  EXPECT_EQ(decode_block(kNotHistory, code, 3), word);
}

TEST(DecodeBlock, PaperWorkedExample011) {
  // §5.1: 011 admits no 0-transition code; identity keeps it at 1 transition.
  const std::uint32_t word = word_from_figure("011");
  EXPECT_EQ(decode_block(kIdentity, word, 3), word);
  // 111 cannot produce 011: the first equation x0 = x~0 is violated.
  for (Transform t : kAllTransforms) {
    EXPECT_NE(decode_block(t, word_from_figure("111"), 3), word);
  }
}

TEST(DecodeBlock, FirstBitAlwaysPreserved) {
  for (unsigned tt = 0; tt < 16; ++tt) {
    for (std::uint32_t code = 0; code < 32; ++code) {
      EXPECT_EQ(decode_block(Transform{tt}, code, 5) & 1u, code & 1u);
    }
  }
}

TEST(DecodeBlockOverlapped, UsesEncodedOverlapBitAsHistory) {
  // With the overlap bit stored as 1 but original 0, the first recurrence
  // instance must see history = 1 (the ENCODED value, §6).
  // τ = ~y: x1 = ~(stored overlap) = 0.
  const std::uint32_t code = 0b01;  // stored: overlap=1, next=0
  const std::uint32_t word = decode_block_overlapped(kNotHistory, code, 0, 2);
  EXPECT_EQ(word & 1u, 0u);         // bit 0 = original overlap value
  EXPECT_EQ((word >> 1) & 1u, 0u);  // ~1 = 0
  // Same stored bits under chain-initial semantics would give ~? — the
  // overlapped variant must differ when stored != original:
  const std::uint32_t chain = decode_block(kNotHistory, code, 2);
  EXPECT_EQ(chain & 1u, 1u);  // chain-initial: first bit = stored bit
}

TEST(DecodeBlockOverlapped, MatchesChainInitialWhenOverlapBitAgrees) {
  // When the stored overlap bit equals the original, both semantics agree.
  for (unsigned tt = 0; tt < 16; ++tt) {
    for (std::uint32_t code = 0; code < 64; ++code) {
      const int first = static_cast<int>(code & 1u);
      EXPECT_EQ(decode_block(Transform{tt}, code, 6),
                decode_block_overlapped(Transform{tt}, code, first, 6));
    }
  }
}

// ---------------------------------------------------------------------------
// Figure 3: TTN / RTN / improvement for block sizes 2..7.
// ---------------------------------------------------------------------------

// Every field is 8 bytes wide, so the struct has no padding: gtest prints the
// param as a byte dump into each test's name, and padding bytes would put
// uninitialised memory there, giving the test a different name per build.
struct Fig3Row {
  long long k;
  long long ttn;
  long long rtn;
  double improvement;
};

class Fig3Test : public ::testing::TestWithParam<Fig3Row> {};

TEST_P(Fig3Test, MatchesExhaustiveSolve) {
  const Fig3Row row = GetParam();
  const BlockCode code = solve_block_code(static_cast<int>(row.k));
  EXPECT_EQ(code.ttn(), row.ttn);
  EXPECT_EQ(code.rtn(), row.rtn);
  EXPECT_NEAR(code.improvement_percent(), row.improvement, 0.05);
}

// k=2..5 match the paper exactly. k=6: the paper prints 320/180 but the
// exhaustive count over all 2^6 words is 160/90 (same 43.8% — the printed
// row is scaled x2). k=7: the paper prints RTN=234 (39.1%); the per-word
// exhaustive optimum sums to 236 (38.5%). See EXPERIMENTS.md.
INSTANTIATE_TEST_SUITE_P(
    PaperFigure3, Fig3Test,
    ::testing::Values(Fig3Row{2, 2, 0, 100.0}, Fig3Row{3, 8, 2, 75.0},
                      Fig3Row{4, 24, 10, 58.3}, Fig3Row{5, 64, 32, 50.0},
                      Fig3Row{6, 160, 90, 43.8}, Fig3Row{7, 384, 236, 38.5}),
    [](const auto& info) { return "k" + std::to_string(info.param.k); });

TEST(BlockCode, TtnIsClosedForm) {
  // TTN = sum of transitions over all k-bit words = (k-1) * 2^(k-1).
  for (int k = 2; k <= 10; ++k) {
    const BlockCode code = solve_block_code(k);
    EXPECT_EQ(code.ttn(), static_cast<long long>(k - 1) * (1LL << (k - 1)));
  }
}

// ---------------------------------------------------------------------------
// Figure 2: the complete k=3 table.
// ---------------------------------------------------------------------------

TEST(BlockCode, Figure2Table) {
  const BlockCode code = solve_block_code(3);
  struct Row {
    const char* word;
    const char* expect_code;
    int tx;
    int tc;
  };
  // Code transition counts are forced by optimality; the code words
  // themselves are forced except where multiple optima exist — these eight
  // match the paper's table exactly under our deterministic tie-break.
  const Row rows[] = {
      {"000", "000", 0, 0}, {"001", "111", 1, 0}, {"010", "000", 2, 0},
      {"011", "011", 1, 1}, {"100", "100", 1, 1}, {"101", "111", 2, 0},
      {"110", "000", 1, 0}, {"111", "111", 0, 0},
  };
  for (const Row& row : rows) {
    const CodeAssignment& e = code.entries[word_from_figure(row.word)];
    EXPECT_EQ(e.word_transitions, row.tx) << row.word;
    EXPECT_EQ(e.code_transitions, row.tc) << row.word;
    EXPECT_EQ(e.code, word_from_figure(row.expect_code)) << row.word;
    EXPECT_EQ(decode_block(e.tau, e.code, 3), e.word) << row.word;
  }
}

// ---------------------------------------------------------------------------
// Figure 4: k=5 under the restricted 8-transform set. The paper prints the
// first half (words starting with figure-leftmost 0); we check every row's
// transition counts and a sample of exact (code, τ) pairs.
// ---------------------------------------------------------------------------

TEST(BlockCode, Figure4TransitionCounts) {
  const BlockCode code =
      solve_block_code(5, std::span<const Transform>{kPaperSubset});
  struct Row {
    const char* word;
    int tx, tc;
  };
  const Row rows[] = {
      {"00000", 0, 0}, {"00001", 1, 0}, {"00010", 2, 1}, {"00011", 1, 1},
      {"00100", 2, 2}, {"00101", 3, 1}, {"00110", 2, 1}, {"00111", 1, 1},
      {"01000", 2, 1}, {"01001", 3, 1}, {"01010", 4, 0}, {"01011", 3, 1},
      {"01100", 2, 2}, {"01101", 3, 2}, {"01110", 2, 1}, {"01111", 1, 1},
  };
  for (const Row& row : rows) {
    const CodeAssignment& e = code.entries[word_from_figure(row.word)];
    EXPECT_EQ(e.word_transitions, row.tx) << row.word;
    EXPECT_EQ(e.code_transitions, row.tc) << row.word;
  }
}

TEST(BlockCode, Figure4ExactAssignments) {
  const BlockCode code =
      solve_block_code(5, std::span<const Transform>{kPaperSubset});
  struct Row {
    const char* word;
    const char* expect_code;
    Transform tau;
  };
  // Rows of Fig. 4 whose optimal code word is unique.
  const Row rows[] = {
      {"00001", "11111", kInvert},
      {"01010", "00000", kNotHistory},
      {"01001", "00111", kNor},
  };
  for (const Row& row : rows) {
    const CodeAssignment& e = code.entries[word_from_figure(row.word)];
    EXPECT_EQ(e.code, word_from_figure(row.expect_code)) << row.word;
    EXPECT_EQ(decode_block(e.tau, e.code, 5), e.word);
  }
}

TEST(BlockCode, Figure4SymmetryBetweenHalves) {
  // §5.2: inverting all bits maps each row of the shown half onto the hidden
  // half with identical transition counts.
  const BlockCode code =
      solve_block_code(5, std::span<const Transform>{kPaperSubset});
  for (std::uint32_t word = 0; word < 32; ++word) {
    const std::uint32_t mirrored = ~word & 0x1Fu;
    EXPECT_EQ(code.entries[word].code_transitions,
              code.entries[mirrored].code_transitions);
    EXPECT_EQ(code.entries[word].word_transitions,
              code.entries[mirrored].word_transitions);
  }
}

// ---------------------------------------------------------------------------
// §5.2: restricted transform sets.
// ---------------------------------------------------------------------------

TEST(SubsetOptimality, PaperSubsetOptimalUpToSeven) {
  for (int k = 2; k <= 7; ++k) {
    EXPECT_TRUE(subset_is_optimal(k, std::span<const Transform>{kPaperSubset}))
        << "k=" << k;
  }
}

TEST(SubsetOptimality, InvertibleFourIsNotEnoughForAllSizes) {
  // The four transforms invertible in x handle small blocks (XNOR covers the
  // 010 case at k=3) but cannot stay optimal across all practical sizes —
  // the minimal optimal subset has six members.
  bool optimal_everywhere = true;
  for (int k = 2; k <= 7; ++k) {
    optimal_everywhere = optimal_everywhere &&
        subset_is_optimal(k, std::span<const Transform>{kInvertibleSubset});
  }
  EXPECT_FALSE(optimal_everywhere);
}

TEST(SubsetOptimality, IdentityAloneSavesNothing) {
  const std::array<Transform, 1> identity_only = {kIdentity};
  const BlockCode code =
      solve_block_code(4, std::span<const Transform>{identity_only});
  EXPECT_EQ(code.rtn(), code.ttn());
}

TEST(SubsetOptimality, MinimalOptimalSubsetIsSizeSixAndUnique) {
  // Repro finding (documented in EXPERIMENTS.md): the paper claims a unique
  // optimal subset of size 8, but the true minimal optimal subset has SIX
  // members — {x, ~x, xor, xnor, nor, nand} — and is unique at that size.
  EXPECT_TRUE(optimal_subsets_of_size(5, 7).empty());
  const auto six = optimal_subsets_of_size(6, 7);
  ASSERT_EQ(six.size(), 1u);
  const std::uint32_t expected = (1u << kIdentity.truth_table()) |
                                 (1u << kInvert.truth_table()) |
                                 (1u << kXor.truth_table()) |
                                 (1u << kXnor.truth_table()) |
                                 (1u << kNor.truth_table()) |
                                 (1u << kNand.truth_table());
  EXPECT_EQ(six[0], expected);
}

TEST(SubsetOptimality, EveryOptimalSubsetContainsTheCoreSix) {
  const auto six = optimal_subsets_of_size(6, 7);
  ASSERT_EQ(six.size(), 1u);
  const std::uint32_t core = six[0];
  for (int size = 7; size <= 9; ++size) {
    const auto winners = optimal_subsets_of_size(size, 7);
    // Supersets of the core six: C(10, size-6) of them.
    const int remaining = 16 - 6;
    long long expected_count = 1;
    for (int i = 0; i < size - 6; ++i) expected_count = expected_count * (remaining - i) / (i + 1);
    EXPECT_EQ(static_cast<long long>(winners.size()), expected_count) << size;
    for (std::uint32_t mask : winners) {
      EXPECT_EQ(mask & core, core);
    }
  }
}

TEST(SubsetOptimality, CoreSixStaysOptimalWellBeyondSeven) {
  // §5.2 proves optimality "for all blocks of size up to seven" and worries
  // the property weakens for longer blocks; exhaustively it holds at least
  // through k = 10 (and through 12 in the subset_uniqueness bench).
  static constexpr std::array<Transform, 6> six = {kIdentity, kInvert, kXor,
                                                   kXnor,     kNor,    kNand};
  for (int k = 8; k <= 10; ++k) {
    EXPECT_TRUE(subset_is_optimal(k, std::span<const Transform>{six})) << k;
  }
}

TEST(SubsetOptimality, PaperEightIsAmongOptimalEights) {
  std::uint32_t paper_mask = 0;
  for (Transform t : kPaperSubset) paper_mask |= 1u << t.truth_table();
  const auto winners = optimal_subsets_of_size(8, 7);
  EXPECT_NE(std::find(winners.begin(), winners.end(), paper_mask), winners.end());
}

TEST(MinCodeTransitions, NeverWorseThanOriginal) {
  // The identity transform guarantees the worst case never regresses (§5.1).
  for (int k = 2; k <= 7; ++k) {
    for (std::uint32_t word = 0; word < (1u << k); ++word) {
      EXPECT_LE(min_code_transitions(word, k,
                                     std::span<const Transform>{kPaperSubset}),
                bits::word_transitions(word, k));
    }
  }
}

TEST(SolveBlockCode, DecodesRoundTripForAllEntries) {
  for (int k = 2; k <= 7; ++k) {
    const BlockCode code = solve_block_code(k);
    for (const CodeAssignment& e : code.entries) {
      EXPECT_EQ(decode_block(e.tau, e.code, k), e.word);
      EXPECT_EQ(e.code_transitions, bits::word_transitions(e.code, k));
      EXPECT_EQ(e.word_transitions, bits::word_transitions(e.word, k));
    }
  }
}

TEST(SolveBlockCode, RejectsBadBlockSizes) {
  EXPECT_THROW(solve_block_code(0), std::invalid_argument);
  EXPECT_THROW(solve_block_code(21), std::invalid_argument);
}

}  // namespace
}  // namespace asimt::core
