// Tests for Algorithm 2 (pattern generator) and the mask utilities,
// including parameterized sweeps over (n, d) and all four pattern types.
#include <gtest/gtest.h>

#include <set>

#include "prune/pattern.h"

namespace upaq {
namespace {

using prune::KernelPattern;
using prune::PatternType;

class PatternSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PatternSweep, GeneratesExactlyNPositionsInBounds) {
  const auto [n, d] = GetParam();
  Rng rng(123);
  for (int trial = 0; trial < 50; ++trial) {
    const KernelPattern p = prune::generate_pattern(n, d, rng);
    EXPECT_EQ(p.nonzeros(), std::min(n, d));
    std::set<std::pair<int, int>> unique(p.positions.begin(), p.positions.end());
    EXPECT_EQ(unique.size(), p.positions.size()) << "duplicate positions";
    for (const auto& [r, c] : p.positions) {
      EXPECT_GE(r, 0);
      EXPECT_LT(r, d);
      EXPECT_GE(c, 0);
      EXPECT_LT(c, d);
    }
  }
}

TEST_P(PatternSweep, MaskMatchesPositionsAndSparsity) {
  const auto [n, d] = GetParam();
  Rng rng(321);
  const KernelPattern p = prune::generate_pattern(n, d, rng);
  const Tensor m = p.mask();
  EXPECT_EQ(m.count_nonzero(), p.nonzeros());
  EXPECT_NEAR(p.sparsity(), 1.0 - static_cast<double>(n) / (d * d), 1e-12);
  for (const auto& [r, c] : p.positions) EXPECT_EQ(m.at(r, c), 1.0f);
}

INSTANTIATE_TEST_SUITE_P(NBYD, PatternSweep,
                         ::testing::Values(std::make_tuple(1, 3),
                                           std::make_tuple(2, 3),
                                           std::make_tuple(3, 3),
                                           std::make_tuple(2, 5),
                                           std::make_tuple(4, 5),
                                           std::make_tuple(5, 5),
                                           std::make_tuple(1, 1),
                                           std::make_tuple(3, 7)));

TEST(Pattern, AllFourTypesAppearOverManyDraws) {
  Rng rng(7);
  std::set<PatternType> seen;
  for (int i = 0; i < 200; ++i)
    seen.insert(prune::generate_pattern(2, 3, rng).type);
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Pattern, DiagonalPositionsMatchAlgorithm2) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    const KernelPattern p = prune::generate_pattern(3, 3, rng);
    if (p.type == PatternType::kMainDiagonal) {
      for (int j = 0; j < 3; ++j)
        EXPECT_EQ(p.positions[static_cast<std::size_t>(j)],
                  (std::pair<int, int>{j, j}));
    } else if (p.type == PatternType::kAntiDiagonal) {
      for (int j = 0; j < 3; ++j)
        EXPECT_EQ(p.positions[static_cast<std::size_t>(j)],
                  (std::pair<int, int>{j, 2 - j}));
    }
  }
}

TEST(Pattern, RowAndColumnAreContiguousSegments) {
  Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    const KernelPattern p = prune::generate_pattern(2, 5, rng);
    if (p.type == PatternType::kRow) {
      EXPECT_EQ(p.positions[0].first, p.positions[1].first);
      EXPECT_EQ(p.positions[1].second, p.positions[0].second + 1);
    } else if (p.type == PatternType::kColumn) {
      EXPECT_EQ(p.positions[0].second, p.positions[1].second);
      EXPECT_EQ(p.positions[1].first, p.positions[0].first + 1);
    }
  }
}

TEST(Pattern, RejectsBadArguments) {
  Rng rng(17);
  EXPECT_THROW(prune::generate_pattern(0, 3, rng), std::invalid_argument);
  EXPECT_THROW(prune::generate_pattern(4, 3, rng), std::invalid_argument);
  EXPECT_THROW(prune::generate_pattern(1, 0, rng), std::invalid_argument);
}

TEST(Pattern, CandidatesAreUniqueByKey) {
  Rng rng(19);
  const auto cands = prune::generate_candidates(2, 3, 16, rng);
  std::set<std::string> keys;
  for (const auto& c : cands) EXPECT_TRUE(keys.insert(c.key()).second);
  EXPECT_GE(cands.size(), 2u);
}

TEST(Pattern, AllPatternsEnumeratesCompleteSet) {
  // For n=2, d=3: 2 diagonals + 3 rows * 2 starts + 3 cols * 2 starts = 14.
  const auto all = prune::all_patterns(2, 3);
  EXPECT_EQ(all.size(), 14u);
  // For n=d the row/col starts collapse to one per row/col: 2 + 3 + 3 = 8.
  EXPECT_EQ(prune::all_patterns(3, 3).size(), 8u);
  // Every random draw must be a member of the enumerated set.
  std::set<std::string> keys;
  for (const auto& p : all) keys.insert(p.key());
  Rng rng(23);
  for (int i = 0; i < 100; ++i)
    EXPECT_TRUE(keys.count(prune::generate_pattern(2, 3, rng).key()))
        << "random pattern outside the enumerated set";
}

TEST(Pattern, ExpandKernelMaskTilesEveryKernel) {
  Rng rng(29);
  const KernelPattern p = prune::generate_pattern(2, 3, rng);
  const Shape wshape{4, 3, 3, 3};
  const Tensor mask = prune::expand_kernel_mask(p, wshape);
  EXPECT_EQ(mask.count_nonzero(), 4 * 3 * 2);
  // Same pattern in the first and last kernel.
  for (const auto& [r, c] : p.positions) {
    EXPECT_EQ(mask.at(0, 0, r, c), 1.0f);
    EXPECT_EQ(mask.at(3, 2, r, c), 1.0f);
  }
  EXPECT_THROW(prune::expand_kernel_mask(p, {4, 3, 5, 5}),
               std::invalid_argument);
}

TEST(Pattern, AllPatternsOneByOneKernelCollapsesToTheSinglePosition) {
  // 1x1 kernels have exactly one slot, so every type degenerates to {(0,0)}:
  // 2 diagonals + 1 row + 1 column, all with the same position set. These
  // feed the pattern panel's tap derivation, which must then see a full tap
  // union (1 of 1) and never compact a 1x1 conv.
  const auto all = prune::all_patterns(1, 1);
  EXPECT_EQ(all.size(), 4u);
  for (const auto& p : all) {
    ASSERT_EQ(p.positions.size(), 1u);
    EXPECT_EQ(p.positions[0], (std::pair<int, int>{0, 0}));
    EXPECT_EQ(p.d, 1);
    EXPECT_DOUBLE_EQ(p.sparsity(), 0.0);
  }
}

TEST(Pattern, AllPatternsDegenerateDiagonalsAtNEqualsD) {
  // n == d: the diagonals use every (j, j) / (j, d-1-j) position — the
  // longest patterns the generator can emit.
  for (int d : {3, 5}) {
    const auto all = prune::all_patterns(d, d);
    const auto& main_d = all[0];
    const auto& anti_d = all[1];
    EXPECT_EQ(main_d.type, PatternType::kMainDiagonal);
    EXPECT_EQ(anti_d.type, PatternType::kAntiDiagonal);
    ASSERT_EQ(main_d.nonzeros(), d);
    ASSERT_EQ(anti_d.nonzeros(), d);
    for (int j = 0; j < d; ++j) {
      EXPECT_EQ(main_d.positions[static_cast<std::size_t>(j)],
                (std::pair<int, int>{j, j}));
      EXPECT_EQ(anti_d.positions[static_cast<std::size_t>(j)],
                (std::pair<int, int>{j, d - 1 - j}));
    }
  }
}

TEST(Pattern, AllPatternsRowColumnSegmentsStayInsideTheKernelBorder) {
  // Every enumerated row/column segment of length n must satisfy
  // start + n <= d — the last legal start (start + n == d) is present, and
  // no segment pokes past the border. Border starts matter to the tap
  // lists: slot d*d - 1 (bottom-right) is reachable only from them.
  const int n = 2, d = 5;
  const auto all = prune::all_patterns(n, d);
  bool saw_last_row_start = false, saw_last_col_start = false;
  for (const auto& p : all) {
    if (p.type == PatternType::kRow) {
      const int start = p.positions.front().second;
      EXPECT_LE(start + n, d);
      EXPECT_EQ(p.positions.back().second, start + n - 1);
      if (start + n == d) saw_last_row_start = true;
    } else if (p.type == PatternType::kColumn) {
      const int start = p.positions.front().first;
      EXPECT_LE(start + n, d);
      EXPECT_EQ(p.positions.back().first, start + n - 1);
      if (start + n == d) saw_last_col_start = true;
    }
    for (const auto& [r, c] : p.positions) {
      EXPECT_GE(r, 0);
      EXPECT_LT(r, d);
      EXPECT_GE(c, 0);
      EXPECT_LT(c, d);
    }
  }
  EXPECT_TRUE(saw_last_row_start) << "missing the border-abutting row start";
  EXPECT_TRUE(saw_last_col_start) << "missing the border-abutting col start";
}

TEST(Pattern, ExpandKernelMaskOnOneByOneKernels) {
  // 1x1 weight shape: the mask is all ones (the only slot is kept) and the
  // shape contract still holds — d must match the pattern's d exactly.
  const auto all = prune::all_patterns(1, 1);
  const Shape wshape{4, 6, 1, 1};
  const Tensor mask = prune::expand_kernel_mask(all.front(), wshape);
  EXPECT_EQ(mask.shape(), wshape);
  EXPECT_EQ(mask.count_nonzero(), 4 * 6);
  EXPECT_THROW(prune::expand_kernel_mask(all.front(), {4, 6, 3, 3}),
               std::invalid_argument);
}

TEST(Pattern, ExpandKernelMaskRejectsNonConvShapes) {
  Rng rng(43);
  const KernelPattern p = prune::generate_pattern(2, 3, rng);
  // Rank != 4.
  EXPECT_THROW(prune::expand_kernel_mask(p, {4, 3, 3}), std::invalid_argument);
  // Non-square spatial dims.
  EXPECT_THROW(prune::expand_kernel_mask(p, {4, 3, 3, 5}),
               std::invalid_argument);
}

TEST(Pattern, TensorSparsity) {
  Tensor t({4}, std::vector<float>{0, 1, 0, 2});
  EXPECT_NEAR(prune::tensor_sparsity(t), 0.5, 1e-12);
  EXPECT_EQ(prune::tensor_sparsity(Tensor()), 0.0);
}

TEST(EntryPatterns, DictionaryShapesAndCounts) {
  for (int entries : {3, 4}) {
    const auto dict = prune::entry_pattern_dictionary(entries);
    EXPECT_EQ(dict.size(), 8u);
    for (const auto& ep : dict) {
      EXPECT_EQ(ep.shape(), (Shape{3, 3}));
      EXPECT_EQ(ep.count_nonzero(), entries);
      EXPECT_EQ(ep.at(1, 1), 1.0f) << "entry patterns keep the kernel centre";
    }
  }
  EXPECT_THROW(prune::entry_pattern_dictionary(5), std::invalid_argument);
}

}  // namespace
}  // namespace upaq
