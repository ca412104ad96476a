// Machine: the full simulated system — physical memory, MMU, hypervisor,
// CPU, booted Camouflage kernel, user programs in their own address spaces,
// and registered loadable modules.
//
// This is the facade examples, benches and the attack framework build on:
// construct, add user programs / modules, boot(), run(), then inspect guest
// state through the kernel symbol table.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/bootloader.h"
#include "cpu/cpu.h"
#include "hyp/hypervisor.h"
#include "kernel/abi.h"
#include "kernel/image_cache.h"
#include "kernel/kernel_builder.h"
#include "kernel/snapshot.h"
#include "mem/mmu.h"
#include "obj/object.h"
#include "obs/collector.h"

namespace camo::kernel {

struct MachineConfig {
  KernelConfig kernel;
  cpu::Cpu::Config cpu;
  obs::Options obs;                  ///< observability (off by default)
  uint64_t seed = 0xC0FFEE;          ///< boot entropy (kernel + user keys)
  uint64_t phys_bytes = 64ull << 20;
  uint64_t preempt_timeslice = 20000;  ///< cycles, when kernel.preempt is set
  /// Guest core count. 1 (the default) is the classic uniprocessor machine,
  /// bit-for-bit identical to the pre-SMP implementation. N > 1 instantiates
  /// N cores sharing one physical memory and stage-2 view, each with its own
  /// stage-1 state, key registers/bank, micro-TLB and superblock cache,
  /// driven by a deterministic round-robin quantum interleaver. Kept
  /// coherent with kernel.num_cpus (either setting raises the other).
  unsigned cores = 1;
  /// Interleaver quantum: max instructions one core retires before the next
  /// core runs. Part of the simulated contract (like preempt_timeslice):
  /// results are a pure function of (config, cores) — never host timing.
  uint64_t smp_quantum = 10000;
  /// Identity of this machine within a multi-machine process (fleet task
  /// index). Namespaces the per-machine host gauges ("host.throughput.m<id>")
  /// so merged fleet registries keep every machine's reading distinct.
  unsigned machine_id = 0;
  /// Optional shared prepared-kernel cache: when set, boot() reuses the
  /// built + verified + signed kernel image of any earlier machine with an
  /// identical configuration instead of preparing its own (DESIGN.md §3d).
  /// Guest-visible state is identical either way.
  std::shared_ptr<ImageCache> image_cache;
  /// Optional shared post-boot snapshot cache (DESIGN.md §3j): when set,
  /// boot() either boots fresh (first machine per boot_signature(), whose
  /// snapshot seeds the cache) or forks — adopting the shared page store and
  /// restoring all architectural state instead of re-running the bootloader.
  /// Guest-visible outcomes (machine fingerprint, trace bytes, audit stream)
  /// are bit-identical either way; only host boot cost changes.
  std::shared_ptr<SnapshotCache> snapshot_cache;
};

/// User stack placement (top of the mapped user stack region).
inline constexpr uint64_t kUserStackTop = 0x0000000080000000ull;
inline constexpr uint64_t kUserStackSize = 0x10000;

class Machine {
 public:
  explicit Machine(MachineConfig cfg = {});

  // ---- pre-boot configuration ----
  /// Add a user thread running `prog` (un-instrumented; the user ABI is
  /// preserved, R5) in its own address space. Returns the pid (1-based).
  /// `entry` is the symbol execution starts at.
  int add_user_program(obj::Program prog, const std::string& entry = "_ustart");
  /// Register a loadable module (instrumented with the kernel's protection
  /// config, §4.1). Returns the module id for Sys::InitModule.
  int register_module(const std::string& name, obj::Program prog);

  /// Build + verify + load + start the kernel. Throws on verification
  /// failure. After boot() the CPU sits at the kernel entry point. With
  /// MachineConfig::snapshot_cache set this transparently boots a template
  /// once per boot_signature() and forks every subsequent machine from its
  /// snapshot.
  void boot();

  // ---- snapshot/fork (DESIGN.md §3j) ----
  /// Cache key covering every input that shapes post-boot machine state:
  /// the ImageCache key (kernel config, seed, task table incl. per-task
  /// keys), physical size, preempt timeslice, CPU model/engine flags,
  /// observability options, and a hash of the user image bytes. machine_id
  /// and smp_quantum are deliberately excluded — both are applied per
  /// machine after fork.
  std::string boot_signature() const;
  /// Capture the full machine state (page store, per-core architectural
  /// state, hypervisor state, boot-era trace/audit events). Requires boot().
  MachineSnapshot take_snapshot();
  /// Become `snap`: adopt its page store copy-on-write, restore per-core and
  /// hypervisor state, rewire each core's MMU, and replay the boot-era
  /// observability events. Only legal on a machine that has not booted —
  /// fresh machines carry no stale predecode/superblock state, so the
  /// invalidation contracts hold trivially. The caller must have added the
  /// exact user programs/modules the snapshot's template had (the factory
  /// symmetry run_fleet relies on).
  void fork(const MachineSnapshot& snap);
  /// True when this machine was populated by fork() rather than a boot.
  bool forked() const { return forked_; }

  // ---- execution ----
  /// Run until halt or step budget exhaustion. Returns true if halted.
  /// Host wall-clock spent inside the CPU loop is accumulated for the
  /// throughput gauge (host-side only; simulated state is unaffected).
  bool run(uint64_t max_steps = 200'000'000);

  /// Total host seconds spent in run() so far.
  double host_seconds() const { return host_seconds_; }
  /// Guest instructions retired per host second across all run() calls and
  /// all cores (0 before the first run). Also published as the
  /// "host.throughput" gauge on stats() when observability is enabled.
  double host_throughput() const {
    return host_seconds_ > 0
               ? static_cast<double>(total_retired()) / host_seconds_
               : 0;
  }

  /// Machine-level halt: a single-core machine is halted when its core is;
  /// a multi-core machine is halted when any core halted abnormally (panic
  /// stops the machine) or every core reached its normal HLT.
  bool halted() const;
  /// First abnormal halt code in core order, else core 0's code.
  uint64_t halt_code() const;
  const std::string& console() const { return hv_.console(); }

  // ---- component access ----
  cpu::Cpu& cpu() { return cpu_; }
  const cpu::Cpu& cpu() const { return cpu_; }
  /// Number of guest cores (== config().cores after coherence).
  unsigned cores() const { return 1 + static_cast<unsigned>(secondary_.size()); }
  /// Core `c` (0 is the primary — same object cpu() returns).
  cpu::Cpu& core(unsigned c);
  const cpu::Cpu& core(unsigned c) const;
  /// Instructions retired summed over all cores (what fleet stats report).
  uint64_t total_retired() const;
  mem::Mmu& mmu() { return mmu_; }
  hyp::Hypervisor& hyp() { return hv_; }
  const core::BootResult& boot_result() const { return *boot_; }
  const MachineConfig& config() const { return cfg_; }

  /// Per-machine observability (trace ring, metrics, profiler). Non-null
  /// only when MachineConfig::obs.enabled was set before boot().
  obs::Collector* stats() { return stats_.get(); }
  const obs::Collector* stats() const { return stats_.get(); }

  /// Fill a flight snapshot with the current architectural state (registers,
  /// PSTATE, key banks with provenance, MMU fetch-epoch generations).
  /// Everything read is guest-deterministic; works with observability off.
  /// This is both the flight recorder's state provider and the divergence
  /// bisector's digest source (obs/digest.h).
  void fill_snapshot(obs::FlightSnapshot& s) const;

  // ---- guest state inspection / manipulation (host-side) ----
  uint64_t kernel_symbol(const std::string& name) const;
  uint64_t read_u64(uint64_t va) const;
  void write_u64(uint64_t va, uint64_t value);  ///< the attacker's primitive
  uint64_t read_global(const std::string& sym) const;
  void write_global(const std::string& sym, uint64_t value);
  /// Address of the task struct for `pid`.
  uint64_t task_struct(unsigned pid) const;
  /// Address of file_table[fd].
  uint64_t file_struct(unsigned fd) const;
  /// Symbol address within pid's user image (1-based pid).
  uint64_t user_symbol(unsigned pid, const std::string& name) const;
  /// Read a u64 from pid's user address space (any current active space).
  uint64_t read_user_u64(unsigned pid, uint64_t va);

 private:
  void boot_fresh();
  void attach_observability();
  void annotate_coverage_regions();

  MachineConfig cfg_;
  mem::PhysicalMemory pm_;
  mem::Mmu mmu_;
  hyp::Hypervisor hv_;
  cpu::Cpu cpu_;
  /// Cores 1..N-1: own stage-1 Mmu (sharing pm_ and the hypervisor's kernel
  /// map + stage-2 overlay) and own Cpu (own key bank, micro-TLB, superblock
  /// cache). Core 0 stays cpu_/mmu_ so every existing accessor is unchanged.
  struct SecondaryCore {
    std::unique_ptr<mem::Mmu> mmu;
    std::unique_ptr<cpu::Cpu> cpu;
  };
  std::vector<SecondaryCore> secondary_;
  /// Core the interleaver ran most recently (snapshot attribution).
  unsigned last_core_ = 0;
  KernelBuilder kb_;
  std::unique_ptr<obs::Collector> stats_;
  /// Shared with the snapshot when forked (BootResult is immutable after
  /// boot; every consumer reads through const access).
  std::shared_ptr<const core::BootResult> boot_;
  std::vector<obj::Image> user_images_;  ///< indexed by pid - 1
  std::vector<int> user_spaces_;
  unsigned next_pid_ = 1;
  double host_seconds_ = 0;
  bool forked_ = false;
  bool snap_hist_recorded_ = false;  ///< hist.snap.cow_pages once per machine
  /// This machine's boot built the shared prepared kernel (image-cache
  /// miss) rather than installing an earlier machine's (hit). Meaningful
  /// only when config().image_cache is set and the machine was not forked.
  bool imgcache_built_ = false;
};

}  // namespace camo::kernel
