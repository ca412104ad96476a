// QARMA-64 cipher tests: algebraic properties the construction must satisfy,
// statistical diffusion checks, and golden regression vectors pinning this
// implementation (see the conformance note in qarma/qarma64.h).
#include <gtest/gtest.h>

#include <bit>
#include <tuple>

#include "qarma/qarma64.h"
#include "support/rng.h"

namespace camo::qarma {
namespace {

// Golden regression values for this implementation (see QarmaGolden below).
constexpr uint64_t kGoldenC5 = 0xADA79AB7E7CBC1EDull;
constexpr uint64_t kGoldenC7 = 0x828C758D48EE9BD7ull;

TEST(QarmaLayers, MixColumnsIsInvolutory) {
  // M = circ(0, rho, rho^2, rho) must be its own inverse (the paper requires
  // the central matrix Q to be involutory; QARMA-64 uses M = Q).
  Xoshiro256 rng(1);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t s = rng.next();
    EXPECT_EQ(Qarma64::mix_columns(Qarma64::mix_columns(s)), s);
  }
}

TEST(QarmaLayers, ShuffleInverse) {
  Xoshiro256 rng(2);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t s = rng.next();
    EXPECT_EQ(Qarma64::inv_shuffle(Qarma64::shuffle(s)), s);
    EXPECT_EQ(Qarma64::shuffle(Qarma64::inv_shuffle(s)), s);
  }
}

TEST(QarmaLayers, SubCellsInverse) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t s = rng.next();
    EXPECT_EQ(Qarma64::inv_sub_cells(Qarma64::sub_cells(s)), s);
  }
}

TEST(QarmaLayers, TweakUpdateInverse) {
  Xoshiro256 rng(4);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t t = rng.next();
    EXPECT_EQ(Qarma64::inv_update_tweak(Qarma64::update_tweak(t)), t);
    EXPECT_EQ(Qarma64::update_tweak(Qarma64::inv_update_tweak(t)), t);
  }
}

TEST(QarmaLayers, TweakUpdateHasLongPeriod) {
  // The LFSR-based schedule must not cycle quickly; check the first 64
  // iterates of a nonzero tweak are distinct.
  uint64_t t = 0x123456789ABCDEFull;
  std::vector<uint64_t> seen;
  for (int i = 0; i < 64; ++i) {
    seen.push_back(t);
    t = Qarma64::update_tweak(t);
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(QarmaLayers, DeriveW1IsBijectionSample) {
  // o(x) must be injective on a sample (it is an orthomorphism).
  Xoshiro256 rng(5);
  std::vector<uint64_t> outs;
  for (int i = 0; i < 4096; ++i) outs.push_back(Qarma64::derive_w1(rng.next()));
  std::sort(outs.begin(), outs.end());
  EXPECT_EQ(std::adjacent_find(outs.begin(), outs.end()), outs.end());
}

class QarmaRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(QarmaRoundTrip, DecryptInvertsEncrypt) {
  const Qarma64 cipher(GetParam());
  Xoshiro256 rng(100 + static_cast<uint64_t>(GetParam()));
  for (int i = 0; i < 300; ++i) {
    const Key128 key{rng.next(), rng.next()};
    const uint64_t p = rng.next(), t = rng.next();
    const uint64_t c = cipher.encrypt(p, t, key);
    EXPECT_EQ(cipher.decrypt(c, t, key), p);
  }
}

TEST_P(QarmaRoundTrip, BijectivePerKeyTweak) {
  const Qarma64 cipher(GetParam());
  const Key128 key{0x0123456789ABCDEFull, 0xFEDCBA9876543210ull};
  const uint64_t tweak = 0x5555AAAA5555AAAAull;
  std::vector<uint64_t> outs;
  for (uint64_t p = 0; p < 2048; ++p)
    outs.push_back(cipher.encrypt(p, tweak, key));
  std::sort(outs.begin(), outs.end());
  EXPECT_EQ(std::adjacent_find(outs.begin(), outs.end()), outs.end());
}

INSTANTIATE_TEST_SUITE_P(Rounds, QarmaRoundTrip, ::testing::Values(3, 5, 6, 7));

// ---- Table path vs cell-wise reference ------------------------------------

/// The cipher composed directly from the cell-wise reference layers, one
/// 4-bit cell at a time, in the round structure of the QARMA paper. Slow;
/// only here to check the table-driven encrypt() against.
uint64_t reference_encrypt(int rounds, uint64_t plaintext, uint64_t tweak,
                           const Key128& key) {
  using Q = Qarma64;
  const uint64_t w0 = key.w0, w1 = Q::derive_w1(w0), k0 = key.k0;
  const uint64_t k1 = Q::mix_columns(k0);
  uint64_t s = plaintext ^ w0, t = tweak;
  for (int i = 0; i < rounds; ++i) {
    s ^= k0 ^ t ^ Q::kRoundConst[static_cast<size_t>(i)];
    if (i != 0) s = Q::mix_columns(Q::shuffle(s));
    s = Q::sub_cells(s);
    t = Q::update_tweak(t);
  }
  s ^= w1 ^ t;
  s = Q::sub_cells(Q::mix_columns(Q::shuffle(s)));
  s = Q::inv_shuffle(Q::mix_columns(Q::shuffle(s)) ^ k1);
  s = Q::inv_shuffle(Q::mix_columns(Q::inv_sub_cells(s)));
  s ^= w0 ^ t;
  for (int i = rounds - 1; i >= 0; --i) {
    t = Q::inv_update_tweak(t);
    s = Q::inv_sub_cells(s);
    if (i != 0) s = Q::inv_shuffle(Q::mix_columns(s));
    s ^= k0 ^ t ^ Q::kRoundConst[static_cast<size_t>(i)] ^ Q::kAlpha;
  }
  return s ^ w1;
}

// 1M random (key, tweak, block) triples in total, 200k per round count,
// split into shards of 50k so each ctest case stays short under the Debug
// sanitizer build. Every triple is checked against the reference and round
// tripped through decrypt().
constexpr int kTableShards = 4;
constexpr int kTriplesPerShard = 50000;

class QarmaTables : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(QarmaTables, MatchCellWiseReference) {
  const auto [rounds, shard] = GetParam();
  const Qarma64 cipher(rounds);
  Xoshiro256 rng(0x7AB1E5ull * 16 + static_cast<uint64_t>(rounds * kTableShards + shard));
  for (int n = 0; n < kTriplesPerShard; ++n) {
    const Key128 key{rng.next(), rng.next()};
    const uint64_t t = rng.next(), p = rng.next();
    const uint64_t c = cipher.encrypt(p, t, key);
    const uint64_t want = reference_encrypt(rounds, p, t, key);
    if (c != want || cipher.decrypt(c, t, key) != p) {
      ADD_FAILURE() << "rounds " << rounds << " triple " << n << std::hex
                    << ": key " << key.w0 << "/" << key.k0 << " tweak " << t
                    << " block " << p << " -> " << c << ", reference " << want;
      return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QarmaTables,
    ::testing::Combine(::testing::Range(3, 8), ::testing::Range(0, kTableShards)));

double avg_flip_distance(int which) {
  // which: 0 = plaintext bit flips, 1 = tweak, 2 = key w0, 3 = key k0
  const Qarma64 cipher(5);
  Xoshiro256 rng(42);
  uint64_t total = 0;
  int n = 0;
  for (int trial = 0; trial < 64; ++trial) {
    Key128 key{rng.next(), rng.next()};
    const uint64_t p = rng.next(), t = rng.next();
    const uint64_t base = cipher.encrypt(p, t, key);
    for (unsigned bitpos = 0; bitpos < 64; bitpos += 7) {
      const uint64_t flip = uint64_t{1} << bitpos;
      uint64_t c2;
      switch (which) {
        case 0: c2 = cipher.encrypt(p ^ flip, t, key); break;
        case 1: c2 = cipher.encrypt(p, t ^ flip, key); break;
        case 2: c2 = cipher.encrypt(p, t, {key.w0 ^ flip, key.k0}); break;
        default: c2 = cipher.encrypt(p, t, {key.w0, key.k0 ^ flip}); break;
      }
      total += static_cast<uint64_t>(std::popcount(base ^ c2));
      ++n;
    }
  }
  return static_cast<double>(total) / n;
}

TEST(QarmaDiffusion, PlaintextAvalanche) {
  const double d = avg_flip_distance(0);
  EXPECT_GT(d, 28.0);
  EXPECT_LT(d, 36.0);
}

TEST(QarmaDiffusion, TweakAvalanche) {
  const double d = avg_flip_distance(1);
  EXPECT_GT(d, 28.0);
  EXPECT_LT(d, 36.0);
}

TEST(QarmaDiffusion, WhiteningKeyAvalanche) {
  const double d = avg_flip_distance(2);
  EXPECT_GT(d, 28.0);
  EXPECT_LT(d, 36.0);
}

TEST(QarmaDiffusion, CoreKeyAvalanche) {
  const double d = avg_flip_distance(3);
  EXPECT_GT(d, 28.0);
  EXPECT_LT(d, 36.0);
}

TEST(QarmaDiffusion, OutputBitsBalanced) {
  // Each ciphertext bit should be ~50% ones over random inputs.
  const Qarma64 cipher(5);
  Xoshiro256 rng(77);
  const Key128 key{rng.next(), rng.next()};
  std::array<int, 64> ones{};
  const int kTrials = 4000;
  for (int i = 0; i < kTrials; ++i) {
    const uint64_t c = cipher.encrypt(rng.next(), rng.next(), key);
    for (int b = 0; b < 64; ++b) ones[static_cast<size_t>(b)] += (c >> b) & 1;
  }
  for (int b = 0; b < 64; ++b) {
    EXPECT_GT(ones[static_cast<size_t>(b)], kTrials * 42 / 100) << "bit " << b;
    EXPECT_LT(ones[static_cast<size_t>(b)], kTrials * 58 / 100) << "bit " << b;
  }
}

// Golden regression vectors: computed once from this implementation and
// pinned so refactors cannot silently change every PAC in the system.
// (Official Avanzi KATs cannot be re-verified offline; see DESIGN.md §2.)
TEST(QarmaGolden, RegressionVectors) {
  const Key128 key{0x84BE85CE9804E94Bull, 0xEC2802D4E0A488E9ull};
  const uint64_t p = 0xFB623599DA6E8127ull;
  const uint64_t t = 0x477D469DEC0B8762ull;
  const uint64_t c5 = Qarma64(5).encrypt(p, t, key);
  const uint64_t c7 = Qarma64(7).encrypt(p, t, key);
  RecordProperty("c5", std::to_string(c5));
  RecordProperty("c7", std::to_string(c7));
  // Pinned values: if an intentional algorithm change occurs, rerun this
  // test, read the recorded c5/c7 properties, and update these constants
  // alongside the DESIGN.md conformance note.
  EXPECT_EQ(c5, kGoldenC5);
  EXPECT_EQ(c7, kGoldenC7);
  EXPECT_EQ(Qarma64(5).decrypt(c5, t, key), p);
}

}  // namespace
}  // namespace camo::qarma
