// Machine snapshot/fork (DESIGN.md §3j).
//
// A MachineSnapshot is everything needed to stamp out an already-booted
// machine without re-running the bootloader: the shared immutable page store
// (mem::PageStore — one entry per page the template ever wrote, so its size
// and a fork's adopt cost follow the written pages, not the physical size;
// forks are copy-on-write views of it), full architectural
// state per core, the hypervisor's translation/allocator/module state, and
// the boot-era observability events (trace + audit) so a fork's collector
// replays them and its merged streams are byte-identical to a fresh boot's.
//
// The SnapshotCache mirrors ImageCache: immutable entries keyed by every
// input of boot (Machine::boot_signature() — kernel config, seed, task
// table, physical size, CPU/engine flags, observability options, user image
// bytes), no invalidation, get() builds under the lock so concurrent first
// boots of one configuration serialize into a single template boot.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/bootloader.h"
#include "cpu/cpu.h"
#include "hyp/hypervisor.h"
#include "mem/phys.h"
#include "obs/audit.h"
#include "obs/trace.h"

namespace camo::kernel {

/// Immutable post-boot machine image. Shared by every fork; never mutated
/// after capture (forks privatize pages on write, never through this).
struct MachineSnapshot {
  /// Written pages with their generations; never-written pages read zero.
  std::shared_ptr<const mem::PageStore> pages;
  std::vector<cpu::Cpu::CoreState> cores;  ///< index = core id
  hyp::Hypervisor::State hv;
  /// Per-core active user-space id the core's Mmu pointed at (-1 = none);
  /// fork rewires each core's user map from this by id, not by pointer.
  std::vector<int> user_map;
  /// Core the interleaver ran most recently (mid-run snapshots).
  unsigned last_core = 0;
  std::shared_ptr<const core::BootResult> boot;
  /// Boot-era observability events, replayed into each fork's collector so
  /// trace-ring/audit-log bytes match a fresh boot exactly.
  std::vector<obs::TraceEvent> boot_trace;
  std::vector<obs::AuditEvent> boot_audit;
};

class SnapshotCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;  ///< template boots performed
  };

  /// Get-or-build the snapshot for `key`. `build` runs at most once per key
  /// for the cache's lifetime (the caller boots a template machine inside
  /// it). Thread-safe; builds serialize under the lock, which is the point:
  /// N workers racing to boot one configuration collapse into one boot.
  std::shared_ptr<const MachineSnapshot> get(
      const std::string& key,
      const std::function<MachineSnapshot()>& build);

  Stats stats() const;
  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const MachineSnapshot>>
      entries_;
  Stats stats_;
};

}  // namespace camo::kernel
