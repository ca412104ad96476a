// Physical memory backing the simulated machine: sparse and copy-on-write.
//
// Out-of-range physical accesses throw camo::Error: guest code can only reach
// physical memory through hypervisor-owned translations, so an out-of-range
// PA indicates a host-side bug, not modeled guest behaviour.
//
// Every write bumps a per-4KiB-page monotonic generation counter. The CPU's
// predecoded instruction cache keys decoded pages by (physical page,
// generation), so any write-to-code — guest stores, the attacker's host-side
// write primitive, module .text staged by the hypervisor, the bootloader
// patching key-setter immediates — invalidates stale decodes without an
// explicit invalidation call. Reads never bump a generation.
//
// Storage (DESIGN.md §3j): a machine is born over the implicit zero store —
// every page reads as zero until first written, so construction costs no
// up-front zero fill — or adopts a shared immutable PageStore captured from
// a booted template machine. Either way, the first write to a page allocates
// a private 4 KiB overlay; reads of untouched pages come from the store (or
// the implicit zero page). The per-page generation vector is always private
// to this machine, so the predecode/superblock/trace invalidation contracts
// are untouched: adopting a store installs the store's generations (which
// are >= anything this machine bumped before adopting, because a fork
// replays the template's exact pre-boot write sequence) and every later
// write bumps monotonically. A store holds one entry per page ever written,
// so a capture is one pass over the generation table and an adopt is two
// flat table resets plus one scatter per written page.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace camo::mem {

/// Immutable page image shared by every fork of one template machine:
/// one entry per page whose write generation is nonzero at capture time, in
/// ascending page order. A page without an entry was never written: it
/// reads as zero at generation 0 (the common case, which is what keeps
/// stores and forks cheap). An entry's generation lets forks inherit
/// counters that dominate their own pre-adopt writes (see the header
/// comment's monotonicity argument); its bytes are the page's in-range span,
/// or empty when the page was written back to all-zero.
struct PageStore {
  struct Page {
    uint64_t index = 0;          ///< physical page number
    uint64_t generation = 0;     ///< write generation at capture (nonzero)
    std::vector<uint8_t> bytes;  ///< in-range bytes; empty = all-zero
  };
  uint64_t size_bytes = 0;
  std::vector<Page> pages;
};

class PhysicalMemory {
 public:
  /// Fixed 4 KiB granule, matching VaLayout::kPageShift (mmu layer).
  static constexpr unsigned kPageShift = 12;
  static constexpr uint64_t kPageSize = uint64_t{1} << kPageShift;

  /// Every page starts as the implicit zero page: no allocation beyond the
  /// per-page tables, pages materialize on first write.
  explicit PhysicalMemory(uint64_t size_bytes);

  uint64_t size() const { return size_; }

  uint8_t read8(uint64_t pa) const;
  uint32_t read32(uint64_t pa) const;
  uint64_t read64(uint64_t pa) const;
  void write8(uint64_t pa, uint8_t v);
  void write32(uint64_t pa, uint32_t v);
  void write64(uint64_t pa, uint64_t v);

  /// Bulk copy into physical memory (used by the loader and bootloader).
  void write_block(uint64_t pa, const void* data, uint64_t len);
  void read_block(uint64_t pa, void* data, uint64_t len) const;
  void fill(uint64_t pa, uint8_t value, uint64_t len);

  /// Capture current contents + generations as an immutable shared store.
  /// Never-written pages get no entry and all-zero pages an empty one, so
  /// forks of a mostly-untouched machine share the implicit zero page rather
  /// than 4 KiB copies.
  std::shared_ptr<const PageStore> snapshot() const;
  /// Become a copy-on-write view of `store` (same size required): drops any
  /// private overlays, installs the store's page generations (zero for pages
  /// it has no entry for), and resets the private-overlay census.
  /// Machine::fork's memory half.
  void adopt(std::shared_ptr<const PageStore> store);

  /// Pages privatized by a write since construction/adopt.
  uint64_t cow_pages() const { return cow_count_; }
  /// Pages still served by the shared store / zero page.
  uint64_t shared_pages() const { return page_count() - cow_count_; }

  /// Monotonic write generation of the page holding `pa_page << kPageShift`.
  /// Out-of-range pages read as generation 0 (they can never hold code).
  uint64_t page_generation(uint64_t pa_page) const {
    return pa_page < page_gen_.size() ? page_gen_[pa_page] : 0;
  }
  uint64_t page_count() const { return page_gen_.size(); }

 private:
  void check(uint64_t pa, uint64_t len) const;
  /// Bump the generation of every page overlapping [pa, pa+len).
  void touch(uint64_t pa, uint64_t len) {
    const uint64_t last = (pa + len - 1) >> kPageShift;
    for (uint64_t p = pa >> kPageShift; p <= last; ++p) ++page_gen_[p];
  }
  /// Writable private copy of page `p`, allocated on first use.
  uint8_t* page_mut(uint64_t p);
  /// Page-chunked copies behind the bulk and page-straddling accesses
  /// (callers have already range-checked and, for stores, bumped).
  void copy_in(uint64_t pa, const uint8_t* src, uint64_t len);
  void copy_out(uint64_t pa, uint8_t* dst, uint64_t len) const;

  uint64_t size_ = 0;
  std::shared_ptr<const PageStore> store_;  ///< shared base (null = all-zero)
  std::vector<std::unique_ptr<uint8_t[]>> overlay_;  ///< private pages
  /// Per-page read view: overlay if privatized, else the store page, else
  /// null (reads as zero). One indirection on the read hot path.
  std::vector<const uint8_t*> read_ptr_;
  uint64_t cow_count_ = 0;
  std::vector<uint64_t> page_gen_;
};

}  // namespace camo::mem
