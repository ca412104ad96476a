#include "attacks/attacks.h"

#include <mutex>

#include "assembler/builder.h"
#include "compiler/instrument.h"
#include "core/modifier.h"
#include "kernel/workloads.h"
#include "obs/flight.h"
#include "support/format.h"

namespace camo::attacks {

using compiler::BackwardScheme;
using compiler::ProtectionConfig;
using kernel::Machine;
using kernel::MachineConfig;

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::Hijacked: return "HIJACKED";
    case Outcome::Detected: return "detected";
    case Outcome::Blocked: return "blocked";
  }
  return "<bad-outcome>";
}

const char* replay_scenario_name(ReplayScenario s) {
  switch (s) {
    case ReplayScenario::SameFunctionSameSp: return "same-fn same-SP";
    case ReplayScenario::DiffFunctionSameSp: return "diff-fn same-SP";
    case ReplayScenario::CrossThread64kStacks: return "cross-thread 64KiB";
    case ReplayScenario::DiffFunctionDiffSp: return "diff-fn diff-SP";
  }
  return "<bad-scenario>";
}

// ---------------------------------------------------------------------------
// The memory primitive
// ---------------------------------------------------------------------------

bool Attacker::read(uint64_t va, uint64_t& out) {
  const auto t = m_->mmu().translate(va, mem::Access::Read, mem::El::El1);
  if (!t.ok()) return false;
  out = m_->mmu().phys().read64(t.pa);
  return true;
}

bool Attacker::write(uint64_t va, uint64_t value) {
  const auto t = m_->mmu().translate(va, mem::Access::Write, mem::El::El1);
  if (!t.ok()) return false;
  m_->mmu().phys().write64(t.pa, value);
  return true;
}

bool& collect_coverage() {
  static bool flag = false;
  return flag;
}

bool& snapshot_mode() {
  static bool flag = false;
  return flag;
}

namespace {

// Shared caches + aggregate stats for snapshot_mode. One mutex guards all
// three: machine_config/reset swap the cache pointers and record_outcome's
// tail folds per-machine counts in from fleet worker threads.
std::mutex g_snap_mu;
SnapStats g_snap;
std::shared_ptr<kernel::ImageCache> g_image_cache;
std::shared_ptr<kernel::SnapshotCache> g_snapshot_cache;

void note_snapshot_machine(Machine& m) {
  if (!snapshot_mode()) return;
  const mem::PhysicalMemory& pm = m.mmu().phys();
  std::lock_guard<std::mutex> lock(g_snap_mu);
  ++g_snap.machines;
  if (m.forked()) ++g_snap.forks;
  g_snap.cow_pages += pm.cow_pages();
  g_snap.shared_pages += pm.shared_pages();
  g_snap.cow_hist.record(pm.cow_pages());
}

}  // namespace

SnapStats snapshot_stats() {
  std::lock_guard<std::mutex> lock(g_snap_mu);
  SnapStats s = g_snap;
  if (g_snapshot_cache) s.template_boots = g_snapshot_cache->stats().misses;
  if (g_image_cache) {
    const kernel::ImageCache::Stats ic = g_image_cache->stats();
    s.imgcache_hits = ic.hits;
    s.imgcache_misses = ic.misses;
  }
  return s;
}

void reset_snapshot_stats() {
  std::lock_guard<std::mutex> lock(g_snap_mu);
  g_snap = SnapStats{};
  g_image_cache.reset();
  g_snapshot_cache.reset();
}

// ---------------------------------------------------------------------------
// Outcome classification
// ---------------------------------------------------------------------------

namespace {

MachineConfig machine_config(const ProtectionConfig& prot,
                             unsigned threshold = 8) {
  MachineConfig cfg;
  cfg.kernel.protection = prot;
  cfg.kernel.pac_failure_threshold = threshold;
  cfg.kernel.log_pac_failures = false;
  // Attack runs always observe, but attach only the feeds attack consumers
  // read: the trace ring (reports cross-check the guest-side failure counter
  // against the AuthFail events the CPU emitted), the audit log and flight
  // recorder (flight bundles), and coverage when asked for. Nothing reads
  // an attack machine's flat or call-graph profile, and both profilers are
  // fed on every retired instruction, so they stay detached.
  cfg.obs.enabled = true;
  cfg.obs.profile = false;
  cfg.obs.callgraph = false;
  cfg.obs.coverage = collect_coverage();
  if (snapshot_mode()) {
    std::lock_guard<std::mutex> lock(g_snap_mu);
    if (!g_image_cache) g_image_cache = std::make_shared<kernel::ImageCache>();
    if (!g_snapshot_cache)
      g_snapshot_cache = std::make_shared<kernel::SnapshotCache>();
    cfg.image_cache = g_image_cache;
    cfg.snapshot_cache = g_snapshot_cache;
  }
  return cfg;
}

/// run_named_attack's flight-bundle request, visible to record_outcome (the
/// common tail of every attack path). thread_local so fleet workers running
/// named attacks concurrently cannot see each other's requests.
struct FlightCtx {
  std::string* out = nullptr;
  const char* attack = "";
  const char* config = "";
};
thread_local FlightCtx g_flight_ctx;

/// Cross-check the trace against the guest view and stamp the final
/// classification into the event stream.
void record_outcome(Machine& m, AttackReport& r) {
  note_snapshot_machine(m);  // every attack path ends here
  obs::Collector* st = m.stats();
  if (!st) return;
  r.trace_auth_failures = st->ring().count_kind(obs::EventKind::AuthFail);
  obs::TraceEvent e;
  e.kind = obs::EventKind::AttackOutcome;
  e.cycles = m.cpu().cycles();
  e.k1 = static_cast<uint8_t>(r.outcome);
  // Emitting the trace event first lets a Detected verdict arm the flight
  // recorder even when no guest-visible fault fired (e.g. threshold panic
  // classified after the run), so the bundle below always has a capture for
  // detected attacks.
  st->emit(e);
  obs::AuditEvent a;
  a.kind = obs::AuditKind::AttackVerdict;
  a.cycles = m.cpu().cycles();
  a.ptr = r.pac_failures;
  a.ptr2 = r.halt_code;
  a.el = 1;
  a.aux = static_cast<uint8_t>(r.outcome);
  st->audit(a);
  if (st->options().coverage)
    r.coverage = std::make_shared<obs::CoverageMap>(st->coverage().snapshot());
  if (g_flight_ctx.out) {
    *g_flight_ctx.out = obs::flight_bundle_json(
        st->flight(), st->audit_log().snapshot(), g_flight_ctx.attack,
        g_flight_ctx.config, m.config().seed);
  }
}

AttackReport finish(Machine& m, uint64_t max_steps = 50'000'000) {
  m.run(max_steps);
  AttackReport r;
  r.pac_failures = m.read_global(kernel::kSymPacFailCount);
  r.halt_code = m.halted() ? m.halt_code() : 0;
  if (m.read_global(kernel::kSymPwnedFlag) != 0) {
    r.outcome = Outcome::Hijacked;
    r.detail = "gadget executed (control flow hijacked)";
  } else if (r.pac_failures > 0 || r.halt_code == kernel::kHaltPacPanic) {
    r.outcome = Outcome::Detected;
    r.detail = r.halt_code == kernel::kHaltPacPanic
                   ? "PAuth failure threshold panic"
                   : "PAuth authentication failure, task killed";
  } else {
    r.outcome = Outcome::Blocked;
    r.detail = "attack had no effect";
  }
  record_outcome(m, r);
  return r;
}

}  // namespace

// ---------------------------------------------------------------------------
// Attacks
// ---------------------------------------------------------------------------

AttackReport run_rop_injection(const ProtectionConfig& prot) {
  Machine m(machine_config(prot));
  m.add_user_program(kernel::workloads::stat_file(5));
  m.boot();
  const uint64_t gadget = m.kernel_symbol(kernel::kSymGadget);
  bool injected = false;
  // get_file is a leaf called by sys_stat: at its entry, FP still points at
  // the caller's frame record, so [FP+8] is sys_stat's saved return address.
  m.cpu().add_breakpoint(m.kernel_symbol("get_file"), [&](cpu::Cpu& c) {
    if (injected) return;
    injected = true;
    Attacker atk(m);
    if (!atk.write(c.x(isa::kRegFp) + 8, gadget)) injected = false;
  });
  AttackReport r = finish(m);
  if (!injected) {
    r.outcome = Outcome::Blocked;
    r.detail = "stack write blocked";
  }
  return r;
}

AttackReport run_forward_edge_injection(const ProtectionConfig& prot) {
  Machine m(machine_config(prot));
  m.add_user_program(kernel::workloads::call_hook(3));
  m.boot();
  const uint64_t gadget = m.kernel_symbol(kernel::kSymGadget);
  const uint64_t slot = m.kernel_symbol(kernel::kSymHookObj);
  bool injected = false;
  m.cpu().add_breakpoint(m.kernel_symbol("sys_call_hook"), [&](cpu::Cpu&) {
    if (injected) return;
    injected = true;
    Attacker atk(m);
    atk.write(slot, gadget);
  });
  return finish(m);
}

AttackReport run_fops_redirect(const ProtectionConfig& prot) {
  Machine m(machine_config(prot));
  m.add_user_program(
      kernel::workloads::read_file(5, 64, kernel::FileKind::Ram));
  m.boot();
  const uint64_t gadget = m.kernel_symbol(kernel::kSymGadget);
  // Forge a fake operations table in writable kernel memory.
  const uint64_t fake_ops = m.kernel_symbol(kernel::kSymRamfsData) + 2048;
  bool injected = false;
  m.cpu().add_breakpoint(m.kernel_symbol("sys_read"), [&](cpu::Cpu&) {
    if (injected) return;
    injected = true;
    Attacker atk(m);
    atk.write(fake_ops + kernel::fops::kRead, gadget);
    atk.write(fake_ops + kernel::fops::kWrite, gadget);
    atk.write(m.file_struct(1) + kernel::file::kFops, fake_ops);
  });
  return finish(m);
}

AttackReport run_fops_cross_object_swap(const ProtectionConfig& prot) {
  Machine m(machine_config(prot));
  // Custom user thread: open two files, then read from the second.
  {
    obj::Program p;
    auto& f = p.add_function("_ustart");
    p.add_bss("ubuf", 256, 16);
    auto sys = [&f](kernel::Sys nr) {
      f.movz(8, static_cast<uint16_t>(nr), 0);
      f.svc(0);
    };
    f.mov_imm(0, static_cast<uint64_t>(kernel::FileKind::Ram));
    sys(kernel::Sys::Open);  // fd 1
    f.mov_imm(0, static_cast<uint64_t>(kernel::FileKind::Null));
    sys(kernel::Sys::Open);  // fd 2
    f.mov(20, 0);
    for (int i = 0; i < 3; ++i) {
      f.mov(0, 20);
      f.mov_sym(1, "ubuf");
      f.mov_imm(2, 32);
      sys(kernel::Sys::Read);
    }
    sys(kernel::Sys::Exit);
    m.add_user_program(std::move(p));
  }
  m.boot();
  bool injected = false;
  m.cpu().add_breakpoint(m.kernel_symbol("sys_read"), [&](cpu::Cpu&) {
    if (injected) return;
    injected = true;
    Attacker atk(m);
    uint64_t signed_fops = 0;
    atk.read(m.file_struct(1) + kernel::file::kFops, signed_fops);
    atk.write(m.file_struct(2) + kernel::file::kFops, signed_fops);
  });
  AttackReport r = finish(m);
  // Reuse "succeeds" when the relocated signature still authenticates: no
  // gadget runs, but the attacker has redirected which ops table an object
  // uses — report that as a hijack of the pointer.
  if (r.outcome == Outcome::Blocked && r.pac_failures == 0) {
    r.outcome = Outcome::Hijacked;
    r.detail = "cross-object signature reuse accepted";
  }
  return r;
}

AttackReport run_bruteforce(const ProtectionConfig& prot, unsigned threshold,
                            unsigned max_tries) {
  Machine m(machine_config(prot, threshold));
  // One attacking process per attempt: each failed guess kills the process
  // (SIGKILL on kernel fault), so the attacker respawns — until the §5.4
  // threshold halts the system.
  const unsigned procs =
      std::min<unsigned>(max_tries, kernel::kMaxTasks - 1);
  for (unsigned i = 0; i < procs; ++i)
    m.add_user_program(kernel::workloads::call_hook(1));
  m.boot();
  const uint64_t gadget = m.kernel_symbol(kernel::kSymGadget);
  const uint64_t slot = m.kernel_symbol(kernel::kSymHookObj);
  const auto& layout = m.cpu().config().layout;
  uint64_t guess_nr = 0;
  m.cpu().add_breakpoint(m.kernel_symbol("sys_call_hook"), [&](cpu::Cpu&) {
    // Next PAC guess: walk the PAC field space deterministically.
    const uint64_t pac_mask = layout.pac_mask(gadget);
    uint64_t forged = layout.canonical(gadget) & ~pac_mask;
    // scatter guess bits into the mask
    uint64_t g = ++guess_nr, out = 0;
    for (unsigned pos = 0; pos < 64; ++pos)
      if (pac_mask & (uint64_t{1} << pos)) {
        out |= (g & 1) << pos;
        g >>= 1;
      }
    Attacker atk(m);
    atk.write(slot, forged | out);
  });
  AttackReport r = finish(m);
  r.attempts = guess_nr;
  return r;
}

AttackReport run_key_extraction(const ProtectionConfig& prot) {
  Machine m(machine_config(prot));
  m.boot();
  Attacker atk(m);
  AttackReport r;
  const uint64_t setter = m.boot_result().key_setter_va;
  unsigned readable = 0;
  for (uint64_t off = 0; off < 4096; off += 8) {
    uint64_t v;
    if (atk.read(setter + off, v)) ++readable;
  }
  // Scan every kernel-image byte the primitive can read for key halves.
  const auto& keys = m.boot_result().keys;
  const uint64_t halves[] = {keys.ia.w0, keys.ia.k0, keys.ib.w0, keys.ib.k0,
                             keys.db.w0, keys.db.k0};
  unsigned leaks = 0;
  const auto& img = m.boot_result().kernel_image;
  for (const auto& seg : img.segments) {
    for (uint64_t va = seg.va; va + 8 <= seg.va + seg.bytes.size(); va += 4) {
      uint64_t v;
      if (!atk.read(va, v)) continue;
      for (const uint64_t h : halves) leaks += v == h;
    }
  }
  if (leaks > 0) {
    r.outcome = Outcome::Hijacked;
    r.detail = strformat("%u key halves leaked", leaks);
  } else if (readable > 0) {
    r.outcome = Outcome::Hijacked;
    r.detail = strformat("read %u words of the XOM page", readable);
  } else {
    r.outcome = Outcome::Blocked;
    r.detail = "XOM unreadable; no key material in readable memory";
  }
  record_outcome(m, r);
  return r;
}

AttackReport run_rodata_tamper(const ProtectionConfig& prot) {
  Machine m(machine_config(prot));
  m.boot();
  Attacker atk(m);
  AttackReport r;
  const uint64_t ops = m.kernel_symbol("null_fops");
  if (atk.write(ops, m.kernel_symbol(kernel::kSymGadget))) {
    r.outcome = Outcome::Hijacked;
    r.detail = "rodata ops table overwritten";
  } else {
    r.outcome = Outcome::Blocked;
    r.detail = "ops tables are write-protected (stage 2)";
  }
  record_outcome(m, r);
  return r;
}

AttackReport run_trapframe_escalation(const ProtectionConfig& prot,
                                      bool protect_trapframe) {
  MachineConfig cfg = machine_config(prot);
  cfg.kernel.protect_trapframe = protect_trapframe;
  Machine m(cfg);
  m.add_user_program(kernel::workloads::yield_loop(50));
  m.add_user_program(kernel::workloads::yield_loop(50));
  m.boot();
  const uint64_t gadget = m.kernel_symbol(kernel::kSymGadget);
  int hits = 0;
  bool injected = false;
  m.cpu().add_breakpoint(m.kernel_symbol("schedule"), [&](cpu::Cpu&) {
    if (injected || ++hits < 6) return;  // let both tasks enter the yield loop
    // Task 1 is sleeping inside sys_yield; its trapframe sits at the top of
    // its kernel stack. Forge ELR -> gadget and SPSR -> EL1 (0x81: EL1 with
    // IRQs masked): the next ERET would run the gadget at kernel privilege.
    const uint64_t kstack_top =
        m.read_u64(m.task_struct(1) + kernel::task::kKstackTop);
    const uint64_t tf = kstack_top - 272;
    Attacker atk(m);
    if (!atk.write(tf + 248, gadget)) return;  // ELR slot
    atk.write(tf + 256, 0x81);                 // SPSR slot
    injected = true;
  });
  return finish(m);
}

AttackReport run_trapframe_migration(const ProtectionConfig& prot) {
  MachineConfig cfg = machine_config(prot);
  cfg.kernel.protect_trapframe = true;
  cfg.kernel.preempt = true;
  cfg.cores = 2;
  // Tight interleaving so tasks actually bounce between cores: the corrupted
  // frame must be *consumed on a different core* than it was saved on.
  cfg.smp_quantum = 50;
  Machine m(cfg);
  // Three tasks on two cores: the runqueue always holds a parked Runnable
  // task, so yields actually switch and tasks keep crossing cores (two tasks
  // on two cores would each just keep their core — an empty pick set makes
  // yield a no-op).
  m.add_user_program(kernel::workloads::yield_loop(50));
  m.add_user_program(kernel::workloads::yield_loop(50));
  m.add_user_program(kernel::workloads::yield_loop(50));
  m.boot();
  const uint64_t gadget = m.kernel_symbol(kernel::kSymGadget);
  const uint64_t t1 = m.task_struct(1);
  bool armed = false;
  bool injected = false;
  // Arm at core 1's scheduler entry: task 1 parked Runnable with its frame
  // saved by core 0 is the migration bait (vruntime 0 wins every cfs-lite
  // min scan, so whichever core schedules next claims it).
  m.core(1).add_breakpoint(m.kernel_symbol("schedule"), [&](cpu::Cpu&) {
    if (armed || injected) return;
    if (m.read_u64(t1 + kernel::task::kState) !=
        static_cast<uint64_t>(kernel::TaskState::Runnable))
      return;
    if (m.read_u64(t1 + kernel::task::kCpu) != 0) return;  // saved on core 0
    m.write_u64(t1 + kernel::task::kVruntime, 0);
    armed = true;
  });
  // Inject at core 1's cpu_switch_to once it has claimed task 1: the frame
  // core 0 signed is corrupted in the window between claim and first ERET.
  // Kernel keys are machine-wide, so the migrated signature itself would
  // authenticate anywhere — only the corruption fails closed, on core 1's
  // own exception exit, and the audit stream attributes the AuthFail to the
  // destination core.
  m.core(1).add_breakpoint(m.kernel_symbol(kernel::kSymCpuSwitchTo),
                           [&](cpu::Cpu& c) {
    if (!armed || injected) return;
    if (c.x(1) != t1) return;  // x1 = next: core 1 is migrating task 1 in
    const uint64_t kstack_top = m.read_u64(t1 + kernel::task::kKstackTop);
    const uint64_t tf = kstack_top - 272;
    Attacker atk(m);
    if (!atk.write(tf + 248, gadget)) return;  // ELR slot
    atk.write(tf + 256, 0x81);                 // SPSR slot: ERET to EL1
    injected = true;
  });
  AttackReport r = finish(m);
  if (!injected) {
    r.outcome = Outcome::Blocked;
    r.detail = "no cross-core migration window opened";
  }
  return r;
}

// ---------------------------------------------------------------------------
// Scenario registry
// ---------------------------------------------------------------------------

const std::vector<std::string>& attack_names() {
  static const std::vector<std::string> names = {
      "rop-injection",  "forward-edge",  "fops-redirect",
      "fops-cross-object", "bruteforce", "key-extraction",
      "rodata-tamper",  "trapframe",     "trapframe-protected",
      "trapframe-migration"};
  return names;
}

const std::vector<std::string>& attack_config_names() {
  static const std::vector<std::string> names = {"none", "backward", "full"};
  return names;
}

std::optional<ProtectionConfig> protection_config_by_name(
    const std::string& name) {
  if (name == "none") return ProtectionConfig::none();
  if (name == "backward") return ProtectionConfig::backward_only();
  if (name == "full") return ProtectionConfig::full();
  return std::nullopt;
}

std::optional<AttackReport> run_named_attack(const std::string& attack,
                                             const std::string& config,
                                             std::string* flight_bundle) {
  const auto prot = protection_config_by_name(config);
  if (!prot) return std::nullopt;
  g_flight_ctx = {flight_bundle, attack.c_str(), config.c_str()};
  std::optional<AttackReport> r;
  if (attack == "rop-injection") r = run_rop_injection(*prot);
  else if (attack == "forward-edge") r = run_forward_edge_injection(*prot);
  else if (attack == "fops-redirect") r = run_fops_redirect(*prot);
  else if (attack == "fops-cross-object") r = run_fops_cross_object_swap(*prot);
  else if (attack == "bruteforce") r = run_bruteforce(*prot, 8, 64);
  else if (attack == "key-extraction") r = run_key_extraction(*prot);
  else if (attack == "rodata-tamper") r = run_rodata_tamper(*prot);
  else if (attack == "trapframe") r = run_trapframe_escalation(*prot, false);
  else if (attack == "trapframe-protected")
    r = run_trapframe_escalation(*prot, true);
  else if (attack == "trapframe-migration")
    r = run_trapframe_migration(*prot);
  g_flight_ctx = {};
  return r;
}

// ---------------------------------------------------------------------------
// Modifier replay matrix
// ---------------------------------------------------------------------------

namespace {

struct ReplayCase {
  uint64_t fn_a, sp_a, fn_b, sp_b;
  const char* name_a;
  const char* name_b;
};

ReplayCase make_case(ReplayScenario s) {
  const uint64_t fn = 0xFFFF000000081000ull;
  const uint64_t sp = 0xFFFF000000404000ull;  // a 4 KiB-aligned stack top
  switch (s) {
    case ReplayScenario::SameFunctionSameSp:
      return {fn, sp, fn, sp, "vfs_read", "vfs_read"};
    case ReplayScenario::DiffFunctionSameSp:
      return {fn, sp, fn + 0x400, sp, "vfs_read", "vfs_write"};
    case ReplayScenario::CrossThread64kStacks:
      // Two task stacks exactly 2^16 bytes apart (the kernel's layout).
      return {fn, sp, fn, sp + 0x10000, "vfs_read", "vfs_read"};
    case ReplayScenario::DiffFunctionDiffSp:
      return {fn, sp, fn + 0x400, sp + 0x20, "vfs_read", "vfs_write"};
  }
  return {};
}

uint64_t modifier_for(BackwardScheme scheme, uint64_t fn, uint64_t sp,
                      const char* name) {
  switch (scheme) {
    case BackwardScheme::None:
      return 0;
    case BackwardScheme::ClangSp:
      return core::clang_return_modifier(sp);
    case BackwardScheme::Parts:
      return core::parts_return_modifier(sp, compiler::parts_function_id(name));
    case BackwardScheme::Camouflage:
      return core::camouflage_return_modifier(sp, fn);
  }
  return 0;
}

}  // namespace

bool replay_accepted(BackwardScheme scheme, ReplayScenario scenario) {
  if (scheme == BackwardScheme::None) return true;  // nothing to check
  const ReplayCase c = make_case(scenario);
  return modifier_for(scheme, c.fn_a, c.sp_a, c.name_a) ==
         modifier_for(scheme, c.fn_b, c.sp_b, c.name_b);
}

bool replay_accepted_on_cpu(BackwardScheme scheme, ReplayScenario scenario) {
  if (scheme == BackwardScheme::None) return true;
  // A minimal machine: sign a return address under modifier A with the IB
  // key, authenticate under modifier B, and check canonicality — exactly
  // what the prologue/epilogue pair does across a replay.
  mem::PhysicalMemory pm(1 << 16);
  mem::Mmu mmu(pm, {});
  cpu::Cpu core(mmu, {});
  core.set_sysreg(isa::SysReg::SCTLR_EL1, isa::kSctlrEnIB);
  core.set_sysreg(isa::SysReg::APIBKeyLo, 0xA5A5F00DDEADBEEFull);
  core.set_sysreg(isa::SysReg::APIBKeyHi, 0x0123456789ABCDEFull);

  const ReplayCase c = make_case(scenario);
  const uint64_t ret_addr = c.fn_a + 0x40;
  const uint64_t mod_a = modifier_for(scheme, c.fn_a, c.sp_a, c.name_a);
  const uint64_t mod_b = modifier_for(scheme, c.fn_b, c.sp_b, c.name_b);
  const auto key = core.pac_key(cpu::PacKey::IB);
  const uint64_t signed_lr = core.pauth().add_pac(ret_addr, mod_a, key);
  const auto auth = core.pauth().auth(signed_lr, mod_b, key, cpu::PacKey::IB);
  return auth.ok;
}

}  // namespace camo::attacks
