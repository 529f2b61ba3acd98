// Framework tests: the prefix-doubling round schedule (Section 3.2).
#include <gtest/gtest.h>

#include "src/core/prefix_doubling.h"

namespace weg::core {
namespace {

TEST(PrefixDoubling, CoversRangeExactly) {
  for (size_t n : {1ul, 2ul, 10ul, 1000ul, 123456ul}) {
    auto rounds = prefix_doubling_rounds(n);
    ASSERT_FALSE(rounds.empty());
    EXPECT_EQ(rounds.front().first, 0u);
    EXPECT_EQ(rounds.back().second, n);
    for (size_t i = 1; i < rounds.size(); ++i) {
      EXPECT_EQ(rounds[i].first, rounds[i - 1].second);
    }
  }
}

TEST(PrefixDoubling, DoublesEachRound) {
  auto rounds = prefix_doubling_rounds(1 << 20);
  for (size_t i = 1; i + 1 < rounds.size(); ++i) {
    size_t before = rounds[i].first;
    size_t added = rounds[i].second - rounds[i].first;
    EXPECT_EQ(added, before) << "round " << i;
  }
}

TEST(PrefixDoubling, InitialRoundIsNOverLogSquared) {
  size_t n = 1 << 20;
  auto rounds = prefix_doubling_rounds(n);
  size_t initial = rounds[0].second;
  EXPECT_GT(initial, n / 800);  // ~ n / log^2 n = n / 400
  EXPECT_LT(initial, n / 200);
}

TEST(PrefixDoubling, RoundCountIsLogLogPlusLog) {
  // O(log(log^2 n)) + fringe: for n = 2^20, ~ log2(400) + 1 ≈ 10 rounds.
  auto rounds = prefix_doubling_rounds(1 << 20);
  EXPECT_LE(rounds.size(), 12u);
  EXPECT_GE(rounds.size(), 8u);
}

TEST(PrefixDoubling, ExplicitInitial) {
  auto rounds = prefix_doubling_rounds(100, 10);
  EXPECT_EQ(rounds[0].second, 10u);
  EXPECT_EQ(rounds[1].second, 20u);
  EXPECT_EQ(rounds.back().second, 100u);
}

TEST(PrefixDoubling, EmptyInput) {
  EXPECT_TRUE(prefix_doubling_rounds(0).empty());
}

}  // namespace
}  // namespace weg::core
