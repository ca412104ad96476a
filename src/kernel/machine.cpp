#include "kernel/machine.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <utility>

#include "compiler/instrument.h"
#include "support/error.h"
#include "support/format.h"
#include "support/rng.h"

namespace camo::kernel {

Machine::Machine(MachineConfig cfg)
    : cfg_([&] {
        // The §8 banked-keys extension involves both the core and the
        // kernel build; setting either flag enables both sides coherently.
        cfg.kernel.banked_keys |= cfg.cpu.banked_keys;
        cfg.cpu.banked_keys |= cfg.kernel.banked_keys;
        // Core count likewise spans both sides: the machine instantiates
        // `cores` CPUs and the kernel image must be built for that many
        // (swapper slots, scheduler shape). Either setting raises the other.
        const unsigned want = std::max(cfg.cores == 0 ? 1u : cfg.cores,
                                       cfg.kernel.num_cpus == 0
                                           ? 1u
                                           : cfg.kernel.num_cpus);
        cfg.cores = want;
        cfg.kernel.num_cpus = want;
        return cfg;
      }()),
      pm_(cfg.phys_bytes),
      mmu_(pm_, cfg.cpu.layout),
      hv_(pm_, mmu_),
      cpu_(mmu_, cfg.cpu),
      kb_(cfg.kernel) {
  // Secondary cores: own stage-1 Mmu wired to the hypervisor-shared kernel
  // map and stage-2 overlay, own Cpu registered as an IPI target.
  for (unsigned c = 1; c < cfg_.cores; ++c) {
    SecondaryCore sc;
    sc.mmu = std::make_unique<mem::Mmu>(pm_, cfg_.cpu.layout);
    hv_.adopt_mmu(*sc.mmu);
    sc.cpu = std::make_unique<cpu::Cpu>(*sc.mmu, cfg_.cpu);
    sc.cpu->set_cpu_id(c);
    hv_.install(*sc.cpu);
    secondary_.push_back(std::move(sc));
  }
}

cpu::Cpu& Machine::core(unsigned c) {
  if (c == 0) return cpu_;
  if (c > secondary_.size()) fail("machine: bad core index");
  return *secondary_[c - 1].cpu;
}

const cpu::Cpu& Machine::core(unsigned c) const {
  if (c == 0) return cpu_;
  if (c > secondary_.size()) fail("machine: bad core index");
  return *secondary_[c - 1].cpu;
}

uint64_t Machine::total_retired() const {
  uint64_t n = cpu_.retired();
  for (const auto& sc : secondary_) n += sc.cpu->retired();
  return n;
}

bool Machine::halted() const {
  if (secondary_.empty()) return cpu_.halted();
  bool all = true;
  for (unsigned c = 0; c < cores(); ++c) {
    const cpu::Cpu& cc = core(c);
    if (cc.halted() && cc.halt_code() != kHaltDone) return true;
    all = all && cc.halted();
  }
  return all;
}

uint64_t Machine::halt_code() const {
  for (unsigned c = 0; c < cores(); ++c) {
    const cpu::Cpu& cc = core(c);
    if (cc.halted() && cc.halt_code() != kHaltDone) return cc.halt_code();
  }
  return cpu_.halt_code();
}

int Machine::add_user_program(obj::Program prog, const std::string& entry) {
  if (boot_) fail("machine: add programs before boot()");
  // User binaries keep the stock ABI (R5): no kernel instrumentation is
  // applied; they are free to use PAuth with their own EL0 keys.
  compiler::instrument(prog, compiler::ProtectionConfig::none());
  const obj::Image img = obj::Linker::link(prog, kUserBase);

  const int space = hv_.create_user_space();
  hv_.load_image(img, hv_.user_space(space), /*user=*/true);
  hv_.map_user_rw(space, kUserStackTop - kUserStackSize, kUserStackSize);
  user_images_.push_back(img);
  user_spaces_.push_back(space);

  TaskSpec spec;
  spec.user_pc = img.symbol(entry);
  spec.user_sp = kUserStackTop;
  spec.space_id = static_cast<uint64_t>(space);
  // Per-thread EL0 keys, freshly generated like exec() does (§2.2).
  Xoshiro256 rng(cfg_.seed ^ (0x9E37ull * next_pid_));
  for (auto& half : spec.user_keys) half = rng.next();
  kb_.add_task(spec);
  return static_cast<int>(next_pid_++);
}

int Machine::register_module(const std::string& name, obj::Program prog) {
  // LKMs are built with the same compiler configuration as the kernel.
  compiler::instrument(prog, cfg_.kernel.protection);
  return hv_.register_module(name, std::move(prog));
}

void Machine::boot() {
  if (boot_) fail("machine: already booted");
  if (cfg_.snapshot_cache) {
    // Template-or-fork path: the first machine per signature boots fresh
    // under the cache lock (concurrent same-signature boots serialize into
    // one) and its snapshot seeds the cache; everyone else forks.
    bool built = false;
    const std::shared_ptr<const MachineSnapshot> snap =
        cfg_.snapshot_cache->get(boot_signature(), [&] {
          boot_fresh();
          built = true;
          return take_snapshot();
        });
    if (!built) fork(*snap);
    return;
  }
  boot_fresh();
}

void Machine::boot_fresh() {
  // Boot stack for the swapper context (becomes task 0's kernel stack).
  hv_.map_kernel_rw(kBootStackTop - kKernelStackSize, kKernelStackSize);

  core::BootConfig bcfg;
  bcfg.seed = cfg_.seed;
  bcfg.protection = cfg_.kernel.protection;
  bcfg.entry_symbol = "early_boot";
  bcfg.key_write_symbols = KernelBuilder::key_write_symbols();
  if (cfg_.image_cache) {
    // Fleet path: build + verify + sign the kernel once per configuration;
    // every later machine with the same key installs the shared image.
    const std::shared_ptr<const core::PreparedKernel> pk =
        cfg_.image_cache->get(
            ImageCache::key_for(cfg_.kernel, cfg_.seed, kb_.tasks()), [&] {
              imgcache_built_ = true;
              return core::Bootloader::prepare(kb_.build(), bcfg,
                                               kKernelBase);
            });
    boot_ = std::make_shared<const core::BootResult>(
        core::Bootloader::install(*pk, hv_, cpu_, kBootStackTop));
  } else {
    boot_ = std::make_shared<const core::BootResult>(core::Bootloader::boot(
        kb_.build(), bcfg, hv_, cpu_, kKernelBase, kBootStackTop));
  }

  // Attach before any guest instruction executes so the collector sees the
  // whole run (the bootloader only stages memory and registers; all guest
  // cycles flow through Cpu::step()).
  if (cfg_.obs.enabled) attach_observability();

  // §8 extension: the "hypervisor" provisions the kernel key bank directly —
  // the keys never exist in EL1-accessible state.
  if (cfg_.cpu.banked_keys) {
    cpu_.set_kernel_bank_key(cpu::PacKey::IA, boot_->keys.ia);
    cpu_.set_kernel_bank_key(cpu::PacKey::IB, boot_->keys.ib);
    cpu_.set_kernel_bank_key(cpu::PacKey::DA, boot_->keys.da);
    cpu_.set_kernel_bank_key(cpu::PacKey::DB, boot_->keys.db);
    cpu_.set_kernel_bank_key(cpu::PacKey::GA, boot_->keys.ga);
  }

  if (cfg_.kernel.preempt) cpu_.set_timer_period(cfg_.preempt_timeslice);

  // Secondary bring-up: host-side "PSCI firmware" mirroring what core 0 does
  // for itself in early_boot plus what Bootloader::install staged — PAuth
  // enable bits, vectors, kernel keys (or the per-core bank), a private boot
  // stack, TPIDR_EL1 at the core's swapper slot, and the pc parked at
  // secondary_idle (which spins until core 0 raises smp_online).
  if (!secondary_.empty()) {
    const obj::Image& img = boot_->kernel_image;
    const uint64_t task_array = img.symbol(kSymTaskArray);
    const bool protected_build =
        cfg_.kernel.protection.backward != compiler::BackwardScheme::None ||
        cfg_.kernel.protection.forward_cfi || cfg_.kernel.protection.dfi;
    for (unsigned c = 1; c < cores(); ++c) {
      cpu::Cpu& cc = core(c);
      const uint64_t stack_top = kBootStackTop - c * kKernelStackSize;
      hv_.map_kernel_rw(stack_top - kKernelStackSize, kKernelStackSize);
      cc.pstate.el = mem::El::El1;
      cc.pstate.irq_masked = true;
      cc.set_sysreg(isa::SysReg::SCTLR_EL1,
                    isa::kSctlrEnIA | isa::kSctlrEnIB | isa::kSctlrEnDA |
                        isa::kSctlrEnDB);
      cc.set_sysreg(isa::SysReg::VBAR_EL1, img.symbol("vectors"));
      cc.set_sp_el(mem::El::El1, stack_top);
      // Swapper slot for core c sits just past the user tasks.
      cc.set_sysreg(isa::SysReg::TPIDR_EL1,
                    task_array + (kb_.task_count() + c) * kTaskSize);
      cc.pc = img.symbol(kSymSecondaryIdle);
      if (cfg_.cpu.banked_keys) {
        cc.set_kernel_bank_key(cpu::PacKey::IA, boot_->keys.ia);
        cc.set_kernel_bank_key(cpu::PacKey::IB, boot_->keys.ib);
        cc.set_kernel_bank_key(cpu::PacKey::DA, boot_->keys.da);
        cc.set_kernel_bank_key(cpu::PacKey::DB, boot_->keys.db);
        cc.set_kernel_bank_key(cpu::PacKey::GA, boot_->keys.ga);
      } else if (protected_build) {
        // Same halves the XOM key setter writes on core 0 (Lo=k0, Hi=w0).
        const auto install = [&cc](isa::SysReg lo, isa::SysReg hi,
                                   const qarma::Key128& k) {
          cc.set_sysreg(lo, k.k0);
          cc.set_sysreg(hi, k.w0);
        };
        install(isa::SysReg::APIAKeyLo, isa::SysReg::APIAKeyHi,
                boot_->keys.ia);
        install(isa::SysReg::APIBKeyLo, isa::SysReg::APIBKeyHi,
                boot_->keys.ib);
        install(isa::SysReg::APDAKeyLo, isa::SysReg::APDAKeyHi,
                boot_->keys.da);
        install(isa::SysReg::APDBKeyLo, isa::SysReg::APDBKeyHi,
                boot_->keys.db);
        install(isa::SysReg::APGAKeyLo, isa::SysReg::APGAKeyHi,
                boot_->keys.ga);
      }
      if (cfg_.kernel.preempt) cc.set_timer_period(cfg_.preempt_timeslice);
    }
  }
}

std::string Machine::boot_signature() const {
  std::string key = ImageCache::key_for(cfg_.kernel, cfg_.seed, kb_.tasks());
  const cpu::Cpu::Config& c = cfg_.cpu;
  key += strformat(
      " phys=%llx slice=%llu va=%u tbi=%u%u cpu=%u%u%u%u%u%u",
      static_cast<unsigned long long>(cfg_.phys_bytes),
      static_cast<unsigned long long>(cfg_.preempt_timeslice),
      c.layout.va_bits, c.layout.tbi_user ? 1u : 0u,
      c.layout.tbi_kernel ? 1u : 0u, c.has_pauth ? 1u : 0u,
      c.fpac ? 1u : 0u, c.enable_cycle_model ? 1u : 0u,
      c.fast_path ? 1u : 0u, c.superblocks ? 1u : 0u, c.traces ? 1u : 0u);
  const obs::Options& o = cfg_.obs;
  key += strformat(" obs=%u%u%u%u tc=%zu ac=%zu fc=%zu",
                   o.enabled ? 1u : 0u, o.profile ? 1u : 0u,
                   o.callgraph ? 1u : 0u, o.coverage ? 1u : 0u,
                   o.trace_capacity, o.audit_capacity, o.flight_capacity);
  // The task table covers entry/keys but not the program text: hash the
  // user image bytes so two different binaries at the same entry VA cannot
  // share a snapshot. The hash takes 8 bytes per step (rotate, xor,
  // multiply; the rotate carries high bits back down so differences in
  // separate words cannot cancel); the zero-padded tail is safe because
  // every segment's length is mixed in first.
  uint64_t h = 0;
  const auto mix = [&h](uint64_t w) {
    h = (std::rotl(h, 5) ^ w) * 0x517CC1B727220A95ull;
  };
  for (const obj::Image& img : user_images_)
    for (const auto& seg : img.segments) {
      const uint8_t* p = seg.bytes.data();
      const size_t n = seg.bytes.size();
      mix(seg.va);
      mix(n);
      size_t i = 0;
      for (; i + 8 <= n; i += 8) {
        uint64_t w;
        std::memcpy(&w, p + i, 8);
        mix(w);
      }
      if (i < n) {
        uint64_t w = 0;
        std::memcpy(&w, p + i, n - i);
        mix(w);
      }
    }
  key += strformat(" uimg=%llx", static_cast<unsigned long long>(h));
  return key;
}

MachineSnapshot Machine::take_snapshot() {
  if (!boot_) fail("machine: snapshot before boot()");
  MachineSnapshot s;
  s.pages = pm_.snapshot();
  for (unsigned c = 0; c < cores(); ++c)
    s.cores.push_back(core(c).core_state());
  s.hv = hv_.save_state();
  for (unsigned c = 0; c < cores(); ++c) {
    const mem::Mmu& mm = c == 0 ? mmu_ : *secondary_[c - 1].mmu;
    const mem::Stage1Map* um = mm.user_map();
    int id = -1;
    if (um != nullptr)
      for (int space : user_spaces_)
        if (&hv_.user_space(space) == um) {
          id = space;
          break;
        }
    s.user_map.push_back(id);
  }
  s.last_core = last_core_;
  s.boot = boot_;
  if (stats_) {
    s.boot_trace = stats_->ring().snapshot();
    s.boot_audit = stats_->audit_log().snapshot();
  }
  return s;
}

void Machine::fork(const MachineSnapshot& snap) {
  if (boot_) fail("machine: fork only a machine that has not booted");
  if (snap.cores.size() != cores())
    fail("machine: fork core-count mismatch");
  if (!snap.boot) fail("machine: fork from an empty snapshot");
  pm_.adopt(snap.pages);
  hv_.restore_state(snap.hv);
  boot_ = snap.boot;
  for (unsigned c = 0; c < cores(); ++c) {
    cpu::Cpu& cc = core(c);
    // On a fresh boot Bootloader::install wires the primary's HVC handler
    // and MSR filter; the fork path never runs it, so wire every core here
    // (idempotent for secondaries, which the constructor installed).
    hv_.install(cc);
    cc.restore_core_state(snap.cores[c]);
    mem::Mmu& mm = c == 0 ? mmu_ : *secondary_[c - 1].mmu;
    mm.set_kernel_map(&hv_.kernel_map());
    mm.set_stage2(&hv_.stage2());
    const int space = snap.user_map[c];
    mm.set_user_map(space >= 0 ? &hv_.user_space(space) : nullptr);
  }
  last_core_ = snap.last_core;
  if (cfg_.obs.enabled) {
    attach_observability();
    // Replay the template's boot-era events through the collector so every
    // derived stream — ring bytes, audit log (restamped with this machine's
    // fleet id on append), histograms — matches a fresh boot exactly.
    for (const obs::TraceEvent& e : snap.boot_trace) stats_->replay(e);
    for (const obs::AuditEvent& e : snap.boot_audit) stats_->audit(e);
  }
  forked_ = true;
}

void Machine::attach_observability() {
  stats_ = std::make_unique<obs::Collector>(cfg_.obs);
  // Every core feeds the one per-machine collector; obs sinks never cost
  // simulated cycles, and the interleaver's set_active_cpu tags retirements
  // with the emitting core for the per-CPU counters.
  for (unsigned c = 0; c < cores(); ++c) {
    cpu::Cpu& cc = core(c);
    cc.set_trace_sink(stats_.get());
    cc.set_cycle_attributor(stats_.get());
    if (cfg_.obs.callgraph) cc.set_cf_sink(stats_.get());
    cc.set_audit_sink(stats_.get());
    if (cfg_.obs.coverage) cc.set_coverage(&stats_->coverage());
  }
  if (cores() > 1) stats_->enable_percpu(cores());
  hv_.set_trace_sink(stats_.get());
  // Security audit stream (DESIGN.md §3f): CPU key/PAC/EL events and
  // hypervisor denials land in the collector's AuditLog, stamped with this
  // machine's fleet identity so merged logs stay per-machine attributable.
  stats_->audit_log().set_machine_id(cfg_.machine_id);
  hv_.set_audit_sink(stats_.get());
  // Flight-recorder state provider: fills the machine-state snapshot at
  // capture time. Everything read there is guest-deterministic.
  stats_->flight().set_state_provider(
      [this](obs::FlightSnapshot& s) { fill_snapshot(s); });

  // Execution coverage (DESIGN.md §3g): annotate the PA-keyed map with
  // kernel functions + protected-table rows so report tooling can list
  // never-executed rows (the per-core attach happened above).
  if (cfg_.obs.coverage) annotate_coverage_regions();

  if (cfg_.obs.profile || cfg_.obs.callgraph) {
    const auto add_region = [&](const std::string& name, uint64_t start,
                                uint64_t end) {
      if (cfg_.obs.profile) stats_->profiler().add_region(name, start, end);
      if (cfg_.obs.callgraph)
        stats_->callgraph().add_region(name, start, end);
    };
    const obj::Image& img = boot_->kernel_image;
    for (const auto& [name, size] : img.function_sizes) {
      const uint64_t va = img.symbol(name);
      add_region(name, va, va + size);
    }
    // User programs all link at kUserBase in separate address spaces, so
    // their texts overlap in VA; profile them as one aggregate region.
    uint64_t user_end = 0;
    for (const auto& u : user_images_)
      if (u.end_va() > user_end) user_end = u.end_va();
    if (user_end > kUserBase) add_region("[user]", kUserBase, user_end);
  }

  if (boot_->kernel_image.has_symbol(kSymCpuSwitchTo)) {
    obs::Collector* c = stats_.get();
    const uint64_t va = boot_->kernel_image.symbol(kSymCpuSwitchTo);
    for (unsigned i = 0; i < cores(); ++i) {
      core(i).add_breakpoint(va, [c](cpu::Cpu& cc) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::ContextSwitch;
        e.cycles = cc.cycles();
        e.pc = cc.pc;
        e.a = cc.x(0);  // prev task struct
        e.b = cc.x(1);  // next task struct
        e.el = static_cast<uint8_t>(cc.pstate.el);
        c->emit(e);
      });
    }
  }
}

void Machine::fill_snapshot(obs::FlightSnapshot& s) const {
  using isa::SysReg;
  // Snapshot the core the interleaver ran last — the one whose retirement
  // (or violation) prompted the capture. Single-core machines always read
  // core 0, exactly the pre-SMP behaviour.
  const cpu::Cpu& cc = core(last_core_);
  const mem::Mmu& mm =
      last_core_ == 0 ? mmu_ : *secondary_[last_core_ - 1].mmu;
  for (unsigned i = 0; i < 31; ++i) s.x[i] = cc.x(i);
  s.sp_el0 = cc.sp_el(mem::El::El0);
  s.sp_el1 = cc.sp_el(mem::El::El1);
  s.pc = cc.pc;
  s.el = static_cast<uint8_t>(cc.pstate.el);
  s.banked_keys = cc.config().banked_keys;
  s.elr_el1 = cc.sysreg(SysReg::ELR_EL1);
  s.spsr_el1 = cc.sysreg(SysReg::SPSR_EL1);
  s.esr_el1 = cc.sysreg(SysReg::ESR_EL1);
  s.far_el1 = cc.sysreg(SysReg::FAR_EL1);
  s.vbar_el1 = cc.sysreg(SysReg::VBAR_EL1);
  s.sctlr_el1 = cc.sysreg(SysReg::SCTLR_EL1);
  s.pending_esr = s.esr_el1;  // last syndrome delivered to EL1
  for (unsigned k = 0; k < 5; ++k) {
    const auto key = static_cast<cpu::PacKey>(k);
    s.keys[k].lo = cc.sysreg(static_cast<SysReg>(k * 2));
    s.keys[k].hi = cc.sysreg(static_cast<SysReg>(k * 2 + 1));
    s.keys[k].prov = cc.sysreg_key_provenance(key);
    const qarma::Key128& b = cc.kernel_bank_key(key);
    s.bank[k].lo = b.k0;
    s.bank[k].hi = b.w0;
    s.bank[k].prov = cc.bank_key_provenance(key);
  }
  const mem::Mmu::FetchEpoch ep = mm.fetch_epoch(cc.pc);
  // Map uids are process-global host identity (ABA bookkeeping), not
  // guest state: only the deterministic generations go into the bundle.
  s.s1_gen = ep.s1_gen;
  s.s2_gen = ep.s2_gen;
  s.cpu = static_cast<uint8_t>(last_core_);
}

void Machine::annotate_coverage_regions() {
  const obj::Image& img = boot_->kernel_image;
  obs::CoverageMap& cov = stats_->coverage();
  // Host-level fetch translation of a kernel text/rodata VA.
  const auto pa_of = [&](uint64_t va, uint64_t* pa) {
    const auto t = mmu_.translate(va, mem::Access::Fetch, mem::El::El2);
    if (t.fault != mem::FaultKind::None) return false;
    *pa = t.pa;
    return true;
  };
  // One region per physically-contiguous chunk of [va, va+size); the map is
  // PA-keyed, so a function split across non-adjacent frames yields several
  // regions under the same label.
  const auto add_fn = [&](const std::string& label, uint64_t va, uint64_t size,
                          const std::string& table, int row) {
    const uint64_t end = va + size;
    while (va < end) {
      uint64_t pa = 0;
      if (!pa_of(va, &pa)) return;
      uint64_t len = std::min<uint64_t>(end - va, 0x1000 - (va & 0xFFF));
      while (va + len < end) {
        uint64_t pn = 0;
        if (!pa_of(va + len, &pn) || pn != pa + len) break;
        len += std::min<uint64_t>(end - (va + len), 0x1000);
      }
      cov.add_region({label, pa, len, table, row});
      va += len;
    }
  };

  // Kernel functions, in name order (deterministic region list regardless
  // of the symbol table's hash order).
  std::vector<std::pair<std::string, uint64_t>> fns(img.function_sizes.begin(),
                                                    img.function_sizes.end());
  std::sort(fns.begin(), fns.end());
  for (const auto& [name, size] : fns) add_fn(name, img.symbol(name), size, "", -1);

  // Protected-table rows: resolve each (unsigned .rodata, §4.4) function
  // pointer back to its owning function so `camo-cov report` can list rows
  // an attack or workload never reached.
  const auto owner_of =
      [&](uint64_t ptr) -> const std::pair<std::string, uint64_t>* {
    for (const auto& f : fns) {
      const uint64_t fva = img.symbol(f.first);
      if (ptr >= fva && ptr < fva + f.second) return &f;
    }
    return nullptr;
  };
  const auto annotate_table = [&](const std::string& table, size_t rows) {
    if (!img.has_symbol(table)) return;
    const uint64_t base = img.symbol(table);
    for (size_t i = 0; i < rows; ++i) {
      const uint64_t ptr = read_u64(base + 8 * i);
      const auto* f = owner_of(ptr);
      if (f == nullptr) continue;
      add_fn(strformat("%s[%zu]:%s", table.c_str(), i, f->first.c_str()),
             img.symbol(f->first), f->second, table, static_cast<int>(i));
    }
  };
  annotate_table("syscall_table", static_cast<size_t>(Sys::kCount));
  annotate_table("hook_registry", 2);
  for (const char* fops : {"null_fops", "ram_fops", "con_fops"})
    annotate_table(fops, 2);
}

bool Machine::run(uint64_t max_steps) {
  const auto t0 = std::chrono::steady_clock::now();
  if (secondary_.empty()) {
    cpu_.run(max_steps);
  } else {
    // Deterministic round-robin quantum interleaver: core order, quantum
    // size and the step budget are all part of the simulated contract, so
    // the interleaving — and therefore every guest-visible outcome — is a
    // pure function of (config, cores), bit-identical across hosts, load
    // and fleet --jobs values. One instruction is never split, which is
    // what makes the guest's SWP runqueue lock atomic.
    uint64_t remaining = max_steps;
    while (remaining > 0) {
      bool progress = false;
      bool abnormal = false;
      for (unsigned c = 0; c < cores() && remaining > 0; ++c) {
        cpu::Cpu& cc = core(c);
        if (cc.halted()) {
          // A panic on any core stops the whole machine mid-round.
          if (cc.halt_code() != kHaltDone) abnormal = true;
          if (abnormal) break;
          continue;
        }
        last_core_ = c;
        if (stats_) stats_->set_active_cpu(c);
        const uint64_t want = std::min<uint64_t>(cfg_.smp_quantum, remaining);
        const uint64_t ret = cc.run(want);
        if (ret > 0) progress = true;
        // Budget by retirements, but charge a full quantum for a turn that
        // retired nothing (pure IRQ delivery) so the loop always advances.
        remaining -= std::min(remaining, ret > 0 ? ret : want);
        if (cc.halted() && cc.halt_code() != kHaltDone) {
          abnormal = true;
          break;
        }
      }
      if (abnormal || !progress) break;
    }
  }
  host_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  if (stats_) {
    // Fast-path cache statistics are host-side and accumulate inside the
    // CPUs/MMUs; publish them as registry counters by delta so the registry
    // stays monotonic across multiple run() calls. Multi-core machines sum
    // across cores — at cores=1 the sums equal the old single-core values.
    obs::Registry& reg = stats_->metrics();
    const auto sync = [&reg](const char* name, uint64_t total) {
      obs::Counter& c = reg.counter(name);
      if (total > c.value()) c.inc(total - c.value());
    };
    uint64_t ic_hit = 0, ic_miss = 0, ic_re = 0;
    uint64_t tlb_hit = 0, tlb_miss = 0, tlb_flush = 0;
    uint64_t pac_hit = 0, pac_miss = 0;
    uint64_t sb_blocks = 0, sb_hits = 0, sb_inval = 0, sb_chain = 0;
    uint64_t tr_formed = 0, tr_hits = 0, tr_gexit = 0, tr_inval = 0,
             tr_demote = 0;
    const auto add_core = [&](cpu::Cpu& cc, const mem::Mmu& mm) {
      const auto& fp = cc.fast_path_stats();
      ic_hit += fp.icache_hits;
      ic_miss += fp.icache_misses;
      ic_re += fp.icache_redecodes;
      const auto& tlb = mm.tlb_stats();
      tlb_hit += tlb.hits;
      tlb_miss += tlb.misses;
      tlb_flush += tlb.flushes;
      const auto& pac = cc.pauth().pac_cache_stats();
      pac_hit += pac.hits;
      pac_miss += pac.misses;
      const auto& sb = cc.superblock_stats();
      sb_blocks += sb.blocks;
      sb_hits += sb.hits;
      sb_inval += sb.invalidations;
      sb_chain += sb.chain_hits;
      tr_formed += sb.traces_formed;
      tr_hits += sb.trace_hits;
      tr_gexit += sb.trace_guard_exits;
      tr_inval += sb.trace_invalidations;
      tr_demote += sb.trace_demotions;
    };
    add_core(cpu_, mmu_);
    for (const auto& sc : secondary_) add_core(*sc.cpu, *sc.mmu);
    sync("fastpath.icache.hit", ic_hit);
    sync("fastpath.icache.miss", ic_miss);
    sync("fastpath.icache.redecode", ic_re);
    sync("fastpath.tlb.hit", tlb_hit);
    sync("fastpath.tlb.miss", tlb_miss);
    sync("fastpath.tlb.flush", tlb_flush);
    sync("fastpath.pac.hit", pac_hit);
    sync("fastpath.pac.miss", pac_miss);
    sync("fastpath.sb.blocks", sb_blocks);
    sync("fastpath.sb.hits", sb_hits);
    sync("fastpath.sb.invalidations", sb_inval);
    sync("fastpath.sb.chain_hits", sb_chain);
    sync("fastpath.trace.formed", tr_formed);
    sync("fastpath.trace.hits", tr_hits);
    sync("fastpath.trace.guard_exits", tr_gexit);
    sync("fastpath.trace.invalidations", tr_inval);
    sync("fastpath.trace.demotions", tr_demote);
    // Image-cache reuse telemetry, cached boots only (uncached machines
    // keep their exact registry shape). Each machine either built the
    // shared prepared kernel (miss) or installed an earlier machine's
    // (hit); a forked machine did neither — its template is the machine
    // that took the miss. Fleet merges sum the per-machine counters, so
    // the totals equal ImageCache::stats() across any obs-enabled sweep.
    if (cfg_.image_cache && !forked_) {
      sync("imgcache.hits", imgcache_built_ ? 0 : 1);
      sync("imgcache.misses", imgcache_built_ ? 1 : 0);
    }
    // Snapshot/fork telemetry, snapshot-cache or forked machines only —
    // snapshot-off registries keep their exact shape. Cumulative counts use
    // the same delta sync; the shared-page census is a gauge (it shrinks as
    // pages privatize).
    if (cfg_.snapshot_cache || forked_) {
      sync("snap.forks", forked_ ? 1 : 0);
      sync("snap.cow_pages", pm_.cow_pages());
      reg.gauge("snap.shared_pages")
          .set(static_cast<double>(pm_.shared_pages()));
      if (halted() && !snap_hist_recorded_) {
        reg.histogram("hist.snap.cow_pages").record(pm_.cow_pages());
        snap_hist_recorded_ = true;
      }
    }
    // Both the aggregate name (single-machine consumers, this registry's
    // own view) and the machine-id-namespaced name: fleet merges combine
    // many machines' registries in one process, where a shared gauge name
    // would collide last-writer-wins (the merge then recomputes the
    // aggregate from summed instret/host-seconds).
    reg.gauge("host.throughput").set(host_throughput());
    reg.gauge(strformat("host.throughput.m%u", cfg_.machine_id))
        .set(host_throughput());
    // Per-core gauges, multi-core machines only (single-core registries
    // keep their exact pre-SMP shape): host-side informational readings.
    if (!secondary_.empty()) {
      for (unsigned c = 0; c < cores(); ++c) {
        const double tp =
            host_seconds_ > 0
                ? static_cast<double>(core(c).retired()) / host_seconds_
                : 0;
        reg.gauge(strformat("host.throughput.m%u.c%u", cfg_.machine_id, c))
            .set(tp);
      }
    }
  }
  return halted();
}

uint64_t Machine::kernel_symbol(const std::string& name) const {
  if (!boot_) fail("machine: not booted");
  return boot_->kernel_image.symbol(name);
}

uint64_t Machine::read_u64(uint64_t va) const {
  const auto r = mmu_.read64(va, mem::El::El2);
  if (r.fault != mem::FaultKind::None)
    fail("machine: read_u64 fault at " + hex_short(va));
  return r.value;
}

void Machine::write_u64(uint64_t va, uint64_t value) {
  // Host-level write bypassing stage-2 (models the threat-model's kernel
  // R/W primitive against *writable* memory; attacks that must honour
  // write-protection use attacks::Attacker instead).
  const auto t = mmu_.translate(va, mem::Access::Read, mem::El::El2);
  if (!t.ok()) fail("machine: write_u64 fault at " + hex_short(va));
  pm_.write64(t.pa, value);
}

uint64_t Machine::read_global(const std::string& sym) const {
  return read_u64(kernel_symbol(sym));
}

void Machine::write_global(const std::string& sym, uint64_t value) {
  write_u64(kernel_symbol(sym), value);
}

uint64_t Machine::task_struct(unsigned pid) const {
  return kernel_symbol(kSymTaskArray) + pid * kTaskSize;
}

uint64_t Machine::file_struct(unsigned fd) const {
  return kernel_symbol(kSymFileTable) + fd * kFileSize;
}

uint64_t Machine::user_symbol(unsigned pid, const std::string& name) const {
  if (pid == 0 || pid > user_images_.size()) fail("machine: bad pid");
  return user_images_[pid - 1].symbol(name);
}

uint64_t Machine::read_user_u64(unsigned pid, uint64_t va) {
  if (pid == 0 || pid > user_spaces_.size()) fail("machine: bad pid");
  const int active = hv_.active_user_space();
  hv_.switch_user_space(user_spaces_[pid - 1]);
  const uint64_t v = read_u64(va);
  if (active >= 0) hv_.switch_user_space(active);
  return v;
}

}  // namespace camo::kernel
