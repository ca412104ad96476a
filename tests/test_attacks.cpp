// Security evaluation tests (§6.2): each attack's outcome under each
// protection configuration, and the modifier replay matrix (§6.2.1, §7).
#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "attacks/attacks.h"
#include "kernel/abi.h"
#include "perfbench/bench/expected.h"

namespace camo::attacks {
namespace {

using compiler::BackwardScheme;
using compiler::ProtectionConfig;

ProtectionConfig with_backward(BackwardScheme s) {
  ProtectionConfig c = ProtectionConfig::none();
  c.backward = s;
  return c;
}

TEST(RopInjection, HijacksUnprotectedKernel) {
  const auto r = run_rop_injection(ProtectionConfig::none());
  EXPECT_EQ(r.outcome, Outcome::Hijacked) << r.detail;
  EXPECT_EQ(r.halt_code, kernel::kHaltPwned);
}

TEST(RopInjection, DetectedByEveryBackwardScheme) {
  for (const auto s : {BackwardScheme::ClangSp, BackwardScheme::Parts,
                       BackwardScheme::Camouflage}) {
    const auto r = run_rop_injection(with_backward(s));
    EXPECT_EQ(r.outcome, Outcome::Detected)
        << compiler::backward_scheme_name(s) << ": " << r.detail;
    EXPECT_GE(r.pac_failures, 1u);
  }
}

TEST(RopInjection, DetectedUnderFullProtection) {
  const auto r = run_rop_injection(ProtectionConfig::full());
  EXPECT_EQ(r.outcome, Outcome::Detected) << r.detail;
}

TEST(RopInjection, CompatModeProtectsOn83) {
  ProtectionConfig c = ProtectionConfig::full();
  c.compat_mode = true;
  const auto r = run_rop_injection(c);
  EXPECT_EQ(r.outcome, Outcome::Detected) << r.detail;
}

TEST(ForwardInjection, HijacksWithoutForwardCfi) {
  const auto r = run_forward_edge_injection(ProtectionConfig::backward_only());
  EXPECT_EQ(r.outcome, Outcome::Hijacked) << r.detail;
}

TEST(ForwardInjection, DetectedWithForwardCfi) {
  const auto r = run_forward_edge_injection(ProtectionConfig::full());
  EXPECT_EQ(r.outcome, Outcome::Detected) << r.detail;
}

TEST(FopsRedirect, HijacksWithoutDfi) {
  ProtectionConfig c = ProtectionConfig::full();
  c.dfi = false;  // f_ops is a *data* pointer: forward CFI alone misses it
  const auto r = run_fops_redirect(c);
  EXPECT_EQ(r.outcome, Outcome::Hijacked) << r.detail;
}

TEST(FopsRedirect, DetectedWithDfi) {
  const auto r = run_fops_redirect(ProtectionConfig::full());
  EXPECT_EQ(r.outcome, Outcome::Detected) << r.detail;
}

TEST(FopsCrossObjectSwap, AcceptedWithoutDfi) {
  const auto r = run_fops_cross_object_swap(ProtectionConfig::none());
  EXPECT_EQ(r.outcome, Outcome::Hijacked) << r.detail;
}

TEST(FopsCrossObjectSwap, DetectedWithDfi) {
  // §4.3: the modifier binds the signature to the containing object's
  // address, so a signature copied between objects fails.
  const auto r = run_fops_cross_object_swap(ProtectionConfig::full());
  EXPECT_EQ(r.outcome, Outcome::Detected) << r.detail;
}

TEST(BruteForce, PanicsAtThreshold) {
  const auto r = run_bruteforce(ProtectionConfig::full(), 4, 16);
  EXPECT_EQ(r.outcome, Outcome::Detected) << r.detail;
  EXPECT_EQ(r.halt_code, kernel::kHaltPacPanic);
  EXPECT_EQ(r.pac_failures, 4u);
  EXPECT_GE(r.attempts, 4u);
}

TEST(BruteForce, HigherThresholdAllowsMoreAttempts) {
  const auto r = run_bruteforce(ProtectionConfig::full(), 8, 16);
  EXPECT_EQ(r.outcome, Outcome::Detected);
  EXPECT_EQ(r.pac_failures, 8u);
}

TEST(BruteForce, TraceAuthFailuresAgreeWithPanicThreshold) {
  // The obs trace is an independent witness of the §5.4 mitigation: the
  // AuthFail events the CPU emitted must agree with the kernel's own
  // failure count, and both must equal the panic threshold.
  for (const unsigned threshold : {2u, 4u, 8u}) {
    const auto r = run_bruteforce(ProtectionConfig::full(), threshold,
                                  threshold + 8);
    EXPECT_EQ(r.halt_code, kernel::kHaltPacPanic) << r.detail;
    EXPECT_EQ(r.pac_failures, threshold);
    EXPECT_EQ(r.trace_auth_failures, threshold)
        << "trace ring disagrees with the kernel's PAC failure count";
  }
}

TEST(TrapframeEscalation, HijacksWithoutTrapframeProtection) {
  // §8: forged saved ELR/SPSR gives ERET-to-EL1 code execution even on a
  // kernel with full pointer protection — saved exception state is data.
  const auto r = run_trapframe_escalation(ProtectionConfig::full(), false);
  EXPECT_EQ(r.outcome, Outcome::Hijacked) << r.detail;
  EXPECT_EQ(r.halt_code, kernel::kHaltPwned);
}

TEST(TrapframeEscalation, DetectedWithTrapframeProtection) {
  const auto r = run_trapframe_escalation(ProtectionConfig::full(), true);
  EXPECT_EQ(r.outcome, Outcome::Detected) << r.detail;
  EXPECT_GE(r.pac_failures, 1u);
}

TEST(TrapframeEscalation, CompatBuildAlsoProtects) {
  ProtectionConfig c = ProtectionConfig::full();
  c.compat_mode = true;
  const auto r = run_trapframe_escalation(c, true);
  EXPECT_EQ(r.outcome, Outcome::Detected) << r.detail;
}

TEST(ZeroModifierAblation, CrossObjectReuseAccepted) {
  // Apple-style zero modifiers preserve memcpy but make signatures
  // location-independent: the cross-object swap now authenticates (§7).
  ProtectionConfig c = ProtectionConfig::full();
  c.apple_zero_modifier = true;
  const auto r = run_fops_cross_object_swap(c);
  EXPECT_EQ(r.outcome, Outcome::Hijacked) << r.detail;
}

TEST(ZeroModifierAblation, StillDetectsRawInjection) {
  // Even with zero modifiers, *unsigned* pointer injection fails: the value
  // has no valid PAC at all.
  ProtectionConfig c = ProtectionConfig::full();
  c.apple_zero_modifier = true;
  const auto r = run_fops_redirect(c);
  EXPECT_EQ(r.outcome, Outcome::Detected) << r.detail;
}

TEST(KeyExtraction, BlockedByXom) {
  const auto r = run_key_extraction(ProtectionConfig::full());
  EXPECT_EQ(r.outcome, Outcome::Blocked) << r.detail;
}

TEST(RodataTamper, BlockedByStage2) {
  const auto r = run_rodata_tamper(ProtectionConfig::full());
  EXPECT_EQ(r.outcome, Outcome::Blocked) << r.detail;
}

// ---------------------------------------------------------------------------
// Replay matrix
// ---------------------------------------------------------------------------

struct ReplayExpect {
  BackwardScheme scheme;
  ReplayScenario scenario;
  bool accepted;
};

class ReplayMatrix : public ::testing::TestWithParam<ReplayExpect> {};

TEST_P(ReplayMatrix, HostAlgebraMatchesExpectation) {
  const auto& p = GetParam();
  EXPECT_EQ(replay_accepted(p.scheme, p.scenario), p.accepted);
}

TEST_P(ReplayMatrix, CpuExecutionMatchesAlgebra) {
  const auto& p = GetParam();
  EXPECT_EQ(replay_accepted_on_cpu(p.scheme, p.scenario), p.accepted);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ReplayMatrix,
    ::testing::Values(
        // Same function, same SP: residual replay window for everyone.
        ReplayExpect{BackwardScheme::ClangSp,
                     ReplayScenario::SameFunctionSameSp, true},
        ReplayExpect{BackwardScheme::Parts,
                     ReplayScenario::SameFunctionSameSp, true},
        ReplayExpect{BackwardScheme::Camouflage,
                     ReplayScenario::SameFunctionSameSp, true},
        // Different function, same SP: breaks the SP-only Clang scheme.
        ReplayExpect{BackwardScheme::ClangSp,
                     ReplayScenario::DiffFunctionSameSp, true},
        ReplayExpect{BackwardScheme::Parts,
                     ReplayScenario::DiffFunctionSameSp, false},
        ReplayExpect{BackwardScheme::Camouflage,
                     ReplayScenario::DiffFunctionSameSp, false},
        // Stacks 2^16 apart: the PARTS weakness §7 identifies.
        ReplayExpect{BackwardScheme::ClangSp,
                     ReplayScenario::CrossThread64kStacks, false},
        ReplayExpect{BackwardScheme::Parts,
                     ReplayScenario::CrossThread64kStacks, true},
        ReplayExpect{BackwardScheme::Camouflage,
                     ReplayScenario::CrossThread64kStacks, false},
        // Fully different context: everyone rejects.
        ReplayExpect{BackwardScheme::ClangSp,
                     ReplayScenario::DiffFunctionDiffSp, false},
        ReplayExpect{BackwardScheme::Parts,
                     ReplayScenario::DiffFunctionDiffSp, false},
        ReplayExpect{BackwardScheme::Camouflage,
                     ReplayScenario::DiffFunctionDiffSp, false}),
    [](const auto& info) {
      std::string n = compiler::backward_scheme_name(info.param.scheme);
      n += "_";
      n += std::to_string(static_cast<int>(info.param.scenario));
      std::replace(n.begin(), n.end(), '-', '_');
      return n;
    });

TEST(ReplayMatrix, CamouflageStrictlyStrongerThanBoth) {
  // Count accepted replays per scheme over all non-trivial scenarios.
  auto count = [](BackwardScheme s) {
    int n = 0;
    for (const auto sc :
         {ReplayScenario::DiffFunctionSameSp,
          ReplayScenario::CrossThread64kStacks,
          ReplayScenario::DiffFunctionDiffSp})
      n += replay_accepted(s, sc);
    return n;
  };
  EXPECT_EQ(count(BackwardScheme::Camouflage), 0);
  EXPECT_GT(count(BackwardScheme::ClangSp), 0);
  EXPECT_GT(count(BackwardScheme::Parts), 0);
}

// ---- the §6.2 sweep, forked and fresh -------------------------------------

/// Guest-side facts of each sweep scenario, in perfbench::kScenarios order,
/// recorded from fresh boots. Outcome and retired counts come from
/// perfbench/bench/expected.h itself.
struct ScenarioFacts {
  uint64_t pac_failures;
  uint64_t halt_code;
  uint64_t trace_auth_failures;
};

using kernel::kHaltDone;
using kernel::kHaltPacPanic;
using kernel::kHaltPwned;
constexpr ScenarioFacts kScenarioFacts[] = {
    {0, kHaltPwned, 0},     // rop-injection/none
    {1, kHaltDone, 1},      // rop-injection/backward
    {1, kHaltDone, 1},      // rop-injection/full
    {0, kHaltPwned, 0},     // forward-edge/none
    {0, kHaltPwned, 0},     // forward-edge/backward
    {1, kHaltDone, 1},      // forward-edge/full
    {0, kHaltPwned, 0},     // fops-redirect/none
    {0, kHaltPwned, 0},     // fops-redirect/backward
    {1, kHaltDone, 1},      // fops-redirect/full
    {0, kHaltDone, 0},      // fops-cross-object/none
    {0, kHaltDone, 0},      // fops-cross-object/backward
    {1, kHaltDone, 1},      // fops-cross-object/full
    {8, kHaltPacPanic, 0},  // bruteforce/none
    {8, kHaltPacPanic, 0},  // bruteforce/backward
    {8, kHaltPacPanic, 8},  // bruteforce/full
    {0, 0, 0},              // key-extraction/none
    {0, 0, 0},              // key-extraction/backward
    {0, 0, 0},              // key-extraction/full
    {0, 0, 0},              // rodata-tamper/none
    {0, 0, 0},              // rodata-tamper/backward
    {0, 0, 0},              // rodata-tamper/full
    {0, kHaltPwned, 0},     // trapframe/none
    {0, kHaltPwned, 0},     // trapframe/backward
    {0, kHaltPwned, 0},     // trapframe/full
    {1, kHaltDone, 1},      // trapframe-protected/none
    {1, kHaltDone, 1},      // trapframe-protected/backward
    {1, kHaltDone, 1},      // trapframe-protected/full
    {0, kHaltDone, 3},      // trapframe-migration/none
    {1, kHaltDone, 1},      // trapframe-migration/backward
    {1, kHaltDone, 1},      // trapframe-migration/full
};
static_assert(std::size(kScenarioFacts) == std::size(perfbench::kScenarios));

/// Attack machines attach only the feeds attack reports read, and fork from
/// snapshots under snapshot_mode(): neither may move a guest-side fact.
TEST(AttackSweep, ReportsMatchRecordedFactsForkedAndFresh) {
  collect_coverage() = true;
  for (const bool snap : {false, true}) {
    snapshot_mode() = snap;
    reset_snapshot_stats();
    for (size_t i = 0; i < std::size(perfbench::kScenarios); ++i) {
      const perfbench::ScenarioExpect& want = perfbench::kScenarios[i];
      const ScenarioFacts& facts = kScenarioFacts[i];
      const std::string name = std::string(want.attack) + "/" + want.config +
                               (snap ? " (forked)" : " (fresh)");
      const auto r = run_named_attack(want.attack, want.config);
      ASSERT_TRUE(r.has_value()) << name;
      EXPECT_EQ(r->outcome, want.outcome) << name;
      EXPECT_EQ(r->pac_failures, facts.pac_failures) << name;
      EXPECT_EQ(r->halt_code, facts.halt_code) << name;
      EXPECT_EQ(r->trace_auth_failures, facts.trace_auth_failures) << name;
      ASSERT_NE(r->coverage, nullptr) << name;
      EXPECT_EQ(r->coverage->retired_total(), want.retired) << name;
    }
    if (snap) {
      EXPECT_GT(snapshot_stats().forks, 0u);
    }
  }
  snapshot_mode() = false;
  collect_coverage() = false;
  reset_snapshot_stats();
}

}  // namespace
}  // namespace camo::attacks
