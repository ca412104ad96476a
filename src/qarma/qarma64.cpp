#include "qarma/qarma64.h"

#include <array>
#include <memory>

#include "support/bits.h"
#include "support/error.h"

namespace camo::qarma {
namespace {

// The 64-bit state is 16 4-bit cells; cell 0 is the most significant nibble,
// matching the row-major 4x4 layout of the QARMA paper (cell i sits at row
// i/4, column i%4).
constexpr unsigned cell_shift(int i) { return static_cast<unsigned>(60 - 4 * i); }

uint64_t get_cell(uint64_t v, int i) { return bits(v, cell_shift(i), 4); }

uint64_t set_cell(uint64_t v, int i, uint64_t c) {
  return insert_bits(v, cell_shift(i), 4, c);
}

/// rho^e: left rotation of a 4-bit cell by e.
constexpr uint64_t rot4(uint64_t c, int e) {
  return ((c << e) | (c >> (4 - e))) & 0xF;
}

// sigma_1, the S-box recommended for PAuth-style usage in the QARMA paper.
constexpr std::array<uint8_t, 16> kSbox = {10, 13, 14, 6, 15, 7, 3, 5,
                                           9,  8,  0,  12, 11, 1, 2, 4};
constexpr std::array<uint8_t, 16> make_inverse(const std::array<uint8_t, 16>& s) {
  std::array<uint8_t, 16> inv{};
  for (int i = 0; i < 16; ++i) inv[s[static_cast<size_t>(i)]] = static_cast<uint8_t>(i);
  return inv;
}
constexpr std::array<uint8_t, 16> kSboxInv = make_inverse(kSbox);

// Cell permutation tau (a MIDORI-style shuffle): new cell i = old cell kTau[i].
constexpr std::array<uint8_t, 16> kTau = {0, 11, 6, 13, 10, 1, 12, 7,
                                          5, 14, 3, 8,  15, 4, 9,  2};
constexpr std::array<uint8_t, 16> kTauInv = make_inverse(kTau);

// Tweak-schedule cell permutation h: new cell i = old cell kH[i].
constexpr std::array<uint8_t, 16> kH = {6, 5, 14, 15, 0, 1, 2, 3,
                                        7, 12, 13, 4, 8, 9, 10, 11};
constexpr std::array<uint8_t, 16> kHInv = make_inverse(kH);

// Cells of the tweak that pass through the LFSR omega each schedule step.
constexpr std::array<uint8_t, 7> kLfsrCells = {0, 1, 3, 4, 8, 11, 13};

// omega: b3 b2 b1 b0 -> (b0 xor b1) b3 b2 b1.
constexpr uint64_t lfsr(uint64_t c) {
  return ((((c >> 0) ^ (c >> 1)) & 1) << 3) | (c >> 1);
}
// omega^-1: n3 n2 n1 n0 -> n2 n1 n0 (n3 xor n0).
constexpr uint64_t lfsr_inv(uint64_t c) {
  return ((c << 1) & 0xF) | (((c >> 3) ^ c) & 1);
}

uint64_t permute(uint64_t v, const std::array<uint8_t, 16>& p) {
  uint64_t out = 0;
  for (int i = 0; i < 16; ++i) out = set_cell(out, i, get_cell(v, p[static_cast<size_t>(i)]));
  return out;
}

uint64_t substitute(uint64_t v, const std::array<uint8_t, 16>& s) {
  uint64_t out = 0;
  for (int i = 0; i < 16; ++i) out = set_cell(out, i, s[get_cell(v, i)]);
  return out;
}

}  // namespace

uint64_t Qarma64::mix_columns(uint64_t state) {
  // M = circ(0, rho^1, rho^2, rho^1) applied to each column of the 4x4 cell
  // array: new row r = rho^1(row r+1) ^ rho^2(row r+2) ^ rho^1(row r+3).
  uint64_t out = 0;
  for (int col = 0; col < 4; ++col) {
    std::array<uint64_t, 4> in{};
    for (int row = 0; row < 4; ++row) in[static_cast<size_t>(row)] = get_cell(state, 4 * row + col);
    for (int row = 0; row < 4; ++row) {
      const uint64_t c = rot4(in[static_cast<size_t>((row + 1) & 3)], 1) ^
                         rot4(in[static_cast<size_t>((row + 2) & 3)], 2) ^
                         rot4(in[static_cast<size_t>((row + 3) & 3)], 1);
      out = set_cell(out, 4 * row + col, c);
    }
  }
  return out;
}

uint64_t Qarma64::shuffle(uint64_t state) { return permute(state, kTau); }
uint64_t Qarma64::inv_shuffle(uint64_t state) { return permute(state, kTauInv); }
uint64_t Qarma64::sub_cells(uint64_t state) { return substitute(state, kSbox); }
uint64_t Qarma64::inv_sub_cells(uint64_t state) {
  return substitute(state, kSboxInv);
}

uint64_t Qarma64::update_tweak(uint64_t tweak) {
  uint64_t t = permute(tweak, kH);
  for (uint8_t i : kLfsrCells) t = set_cell(t, i, lfsr(get_cell(t, i)));
  return t;
}

uint64_t Qarma64::inv_update_tweak(uint64_t tweak) {
  uint64_t t = tweak;
  for (uint8_t i : kLfsrCells) t = set_cell(t, i, lfsr_inv(get_cell(t, i)));
  return permute(t, kHInv);
}

uint64_t Qarma64::derive_w1(uint64_t w0) {
  // The orthomorphism o(x) = (x >>> 1) ^ (x >> 63).
  return ror64(w0, 1) ^ (w0 >> 63);
}

// ---- Table-driven evaluation ---------------------------------------------
//
// Every layer except the S-box is linear over GF(2)^64, so applying it to a
// state equals XORing its images of the state's eight bytes taken in place:
// each linear layer the rounds use becomes eight 256-entry tables (16 KiB).
// The S-box layer is cell-local, so it becomes one 256-entry table of S-box
// pairs, and where it feeds straight into a linear layer the two share one
// set of tables (S then MixColumns . tau, S^-1 then tau^-1 . MixColumns).
// The tables are filled once per process from the cell-wise functions above,
// so the two paths cannot drift apart; tests/test_qarma.cpp checks them
// against each other.

namespace {

using LinearTable = std::array<std::array<uint64_t, 256>, 8>;
using SboxTable = std::array<uint8_t, 256>;

struct Tables {
  LinearTable mix;        ///< MixColumns (k1 = Q * k0)
  LinearTable mix_tau;    ///< MixColumns . tau
  LinearTable fwd_round;  ///< MixColumns . tau . S
  LinearTable tau_inv;    ///< tau^-1
  LinearTable inv_round;  ///< tau^-1 . MixColumns . S^-1
  LinearTable tweak;      ///< one tweak-schedule step (h, then omega)
  SboxTable sbox_inv;     ///< S^-1 alone, for the last backward round
};

/// t[b][v] = layer(v placed in byte b), optionally after the S-box pair.
template <typename Layer>
void tabulate(LinearTable& t, Layer layer, const SboxTable* first = nullptr) {
  for (unsigned b = 0; b < 8; ++b)
    for (unsigned v = 0; v < 256; ++v)
      t[b][v] = layer(uint64_t{first ? (*first)[v] : v} << (8 * b));
}

void tabulate(SboxTable& t, uint64_t (*layer)(uint64_t)) {
  for (unsigned v = 0; v < 256; ++v) t[v] = static_cast<uint8_t>(layer(v));
}

std::unique_ptr<const Tables> build_tables() {
  auto t = std::make_unique<Tables>();
  SboxTable sbox{};
  tabulate(sbox, Qarma64::sub_cells);
  tabulate(t->sbox_inv, Qarma64::inv_sub_cells);
  tabulate(t->mix, Qarma64::mix_columns);
  const auto mix_tau = [](uint64_t s) {
    return Qarma64::mix_columns(Qarma64::shuffle(s));
  };
  tabulate(t->mix_tau, mix_tau);
  tabulate(t->fwd_round, mix_tau, &sbox);
  tabulate(t->tau_inv, Qarma64::inv_shuffle);
  tabulate(t->inv_round, [](uint64_t s) {
    return Qarma64::inv_shuffle(Qarma64::mix_columns(s));
  }, &t->sbox_inv);
  tabulate(t->tweak, Qarma64::update_tweak);
  return t;
}

const Tables& tables() {
  static const std::unique_ptr<const Tables> t = build_tables();
  return *t;
}

// Both combine the eight byte lookups as a balanced tree, so a layer costs
// about one load plus three ALU steps of latency rather than an 8-step chain.
uint64_t apply(const LinearTable& t, uint64_t s) {
  const auto at = [&](unsigned b) { return t[b][(s >> (8 * b)) & 0xFF]; };
  return ((at(0) ^ at(1)) ^ (at(2) ^ at(3))) ^ ((at(4) ^ at(5)) ^ (at(6) ^ at(7)));
}

uint64_t apply(const SboxTable& t, uint64_t s) {
  const auto at = [&](unsigned b) {
    return uint64_t{t[(s >> (8 * b)) & 0xFF]} << (8 * b);
  };
  return ((at(0) | at(1)) | (at(2) | at(3))) | ((at(4) | at(5)) | (at(6) | at(7)));
}

/// The cipher in either direction. Decryption has encryption's shape with
/// the whitening keys swapped and alpha moved to the other half, and its
/// reflector step tau^-1 . M . (tau(s) ^ k1) equals tau^-1 . (M . tau(s) ^ k0)
/// because M is an involution and k1 = M * k0. So:
///   encrypt: evaluate(.., w0, w1, k1, 0, alpha)
///   decrypt: evaluate(.., w1, w0, k0, alpha, 0)
uint64_t evaluate(const Tables& t, int rounds, uint64_t block, uint64_t tweak,
                  uint64_t k0, uint64_t w_in, uint64_t w_out,
                  uint64_t reflect_key, uint64_t alpha_in, uint64_t alpha_out) {
  // Tweaks T_0 .. T_r; the backward rounds reuse them instead of stepping
  // the inverse schedule.
  const size_t r = static_cast<size_t>(rounds);
  std::array<uint64_t, 8> tw{};
  tw[0] = tweak;
  for (size_t i = 0; i < r; ++i) tw[i + 1] = apply(t.tweak, tw[i]);
  const auto& c = Qarma64::kRoundConst;

  // r forward rounds; round 0 is "short" (no shuffle / MixColumns). z is the
  // state before a round's S-box layer, so that layer and the next round's
  // MixColumns . tau take one table pass, and the round tweakey enters
  // through MixColumns . tau off the state's dependency chain.
  uint64_t z = block ^ w_in ^ k0 ^ tw[0] ^ c[0] ^ alpha_in;
  for (size_t i = 1; i < r; ++i)
    z = apply(t.fwd_round, z) ^ apply(t.mix_tau, k0 ^ tw[i] ^ c[i] ^ alpha_in);

  // Central construction: one full forward round keyed by w_out + T_r, the
  // keyed pseudo-reflector tau . Q . tau^-1, one full backward round keyed by
  // w_in + T_r.
  z = apply(t.fwd_round, z) ^ apply(t.mix_tau, w_out ^ tw[r]);
  uint64_t s = apply(t.tau_inv, apply(t.fwd_round, z) ^ reflect_key);
  s = apply(t.inv_round, s) ^ w_in ^ tw[r];

  // r backward rounds mirroring the forward ones.
  for (size_t i = r; i-- > 0;) {
    s = i != 0 ? apply(t.inv_round, s) : apply(t.sbox_inv, s);
    s ^= k0 ^ tw[i] ^ c[i] ^ alpha_out;
  }
  return s ^ w_out;
}

}  // namespace

Qarma64::Qarma64(int rounds) : rounds_(rounds) {
  if (rounds < 3 || rounds > 7) fail("Qarma64: rounds must be in [3,7]");
  tables();  // fill the tables here rather than inside a timed call
}

uint64_t Qarma64::encrypt(uint64_t plaintext, uint64_t tweak,
                          const Key128& key) const {
  const Tables& t = tables();
  const uint64_t k1 = apply(t.mix, key.k0);  // reflector key, k1 = Q * k0
  return evaluate(t, rounds_, plaintext, tweak, key.k0, key.w0,
                  derive_w1(key.w0), k1, 0, kAlpha);
}

uint64_t Qarma64::decrypt(uint64_t ciphertext, uint64_t tweak,
                          const Key128& key) const {
  return evaluate(tables(), rounds_, ciphertext, tweak, key.k0,
                  derive_w1(key.w0), key.w0, key.k0, kAlpha, 0);
}

uint64_t compute_pac_cipher(uint64_t data, uint64_t modifier,
                            const Key128& key) {
  static const Qarma64 cipher(5);
  return cipher.encrypt(data, modifier, key);
}

}  // namespace camo::qarma
