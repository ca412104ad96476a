// Recorded outcomes every benchmark operation is checked against. The
// simulated results are a pure function of the machine configuration (the
// boot seed does not move them), so one table serves every --seed. A
// host-speed change must leave every number here unchanged.
#pragma once

#include <cstdint>
#include <optional>

#include "attacks/attacks.h"
#include "kernel/abi.h"
#include "stats.h"

namespace perfbench {

/// syscall-mix and user-mix cells: halt code, simulated cycles of core 0,
/// guest instructions retired.
inline constexpr RunExpect kSyscallMixExpect{camo::kernel::kHaltDone,
                                               7164237, 3599986};
inline constexpr RunExpect kUserMixExpect{camo::kernel::kHaltDone, 5716954,
                                            3302839};

/// One attack-sweep scenario: the §6.2 verdict and the guest instructions
/// its machine retires (counted by the coverage map's retire counters).
struct ScenarioExpect {
  const char* attack;
  const char* config;
  camo::attacks::Outcome outcome;
  uint64_t retired;
};

using camo::attacks::Outcome;
inline constexpr ScenarioExpect kScenarios[] = {
    {"rop-injection", "none", Outcome::Hijacked, 541},
    {"rop-injection", "backward", Outcome::Detected, 871},
    {"rop-injection", "full", Outcome::Detected, 895},
    {"forward-edge", "none", Outcome::Hijacked, 391},
    {"forward-edge", "backward", Outcome::Hijacked, 463},
    {"forward-edge", "full", Outcome::Detected, 675},
    {"fops-redirect", "none", Outcome::Hijacked, 538},
    {"fops-redirect", "backward", Outcome::Hijacked, 674},
    {"fops-redirect", "full", Outcome::Detected, 885},
    {"fops-cross-object", "none", Outcome::Hijacked, 1970},
    {"fops-cross-object", "backward", Outcome::Hijacked, 2402},
    {"fops-cross-object", "full", Outcome::Detected, 1083},
    {"bruteforce", "none", Outcome::Detected, 5727},
    {"bruteforce", "backward", Outcome::Detected, 6543},
    {"bruteforce", "full", Outcome::Detected, 6600},
    {"key-extraction", "none", Outcome::Blocked, 0},
    {"key-extraction", "backward", Outcome::Blocked, 0},
    {"key-extraction", "full", Outcome::Blocked, 0},
    {"rodata-tamper", "none", Outcome::Blocked, 0},
    {"rodata-tamper", "backward", Outcome::Blocked, 0},
    {"rodata-tamper", "full", Outcome::Blocked, 0},
    {"trapframe", "none", Outcome::Hijacked, 1461},
    {"trapframe", "backward", Outcome::Hijacked, 1956},
    {"trapframe", "full", Outcome::Hijacked, 2008},
    {"trapframe-protected", "none", Outcome::Detected, 9407},
    {"trapframe-protected", "backward", Outcome::Detected, 13419},
    {"trapframe-protected", "full", Outcome::Detected, 13485},
    {"trapframe-migration", "none", Outcome::Blocked, 2686},
    {"trapframe-migration", "backward", Outcome::Detected, 29332},
    {"trapframe-migration", "full", Outcome::Detected, 28989},
};

/// A scenario report matches its recorded verdict; with `retired` also the
/// recorded instruction count (needs a coverage-collecting run).
inline bool scenario_matches(const ScenarioExpect& want,
                             const std::optional<camo::attacks::AttackReport>& r,
                             bool retired) {
  if (!r || r->outcome != want.outcome) return false;
  if (!retired) return true;
  return r->coverage && r->coverage->retired_total() == want.retired;
}

}  // namespace perfbench
