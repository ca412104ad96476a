// Snapshot/fork machines (DESIGN.md §3j).
//
// The contract under test: a machine populated by Machine::fork() from a
// booted template's snapshot is bit-identical to a machine that booted
// fresh — same per-core clocks and retire counts, same halt code and
// console, same trace-ring bytes and same audit stream — for every engine
// combination, core count and host job count. Plus the memory half of the
// contract: forks are copy-on-write views of one shared page store, so a
// child's writes are invisible to the template and to sibling forks, and
// per-page write generations only ever move forward within each child.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "compiler/instrument.h"
#include "kernel/abi.h"
#include "kernel/machine.h"
#include "kernel/snapshot.h"
#include "kernel/workloads.h"
#include "mem/phys.h"
#include "obs/digest.h"
#include "obs/flight.h"
#include "par/fleet.h"
#include "par/pool.h"

namespace camo::kernel {
namespace {

struct Engines {
  bool fast_path = false;
  bool superblocks = false;
  bool traces = false;
};

constexpr Engines kEngineCombos[] = {
    {false, false, false},  // reference interpreter
    {true, false, false},   // predecode fast path
    {true, true, false},    // superblocks
    {true, true, true},     // trace tier
};

MachineConfig snap_config(const Engines& e, unsigned cores,
                          std::shared_ptr<SnapshotCache> snap_cache = nullptr,
                          std::shared_ptr<ImageCache> img_cache = nullptr) {
  MachineConfig cfg;
  cfg.kernel.protection = compiler::ProtectionConfig::full();
  cfg.kernel.log_pac_failures = false;
  cfg.kernel.preempt = true;
  cfg.cpu.fast_path = e.fast_path;
  cfg.cpu.superblocks = e.superblocks;
  cfg.cpu.traces = e.traces;
  cfg.cores = cores;
  cfg.smp_quantum = 50;  // real interleaving at this workload size
  cfg.obs.enabled = true;
  cfg.snapshot_cache = std::move(snap_cache);
  cfg.image_cache = std::move(img_cache);
  return cfg;
}

void add_workload(Machine& m) {
  m.add_user_program(workloads::null_syscall(25));
  m.add_user_program(workloads::yield_loop(10));
}

// Field-wise encodings of the observability streams: comparing field by
// field (rather than memcmp of the structs) keeps padding bytes out of the
// equality and makes a mismatch print as a readable integer diff.
std::vector<uint64_t> encode_trace(const std::vector<obs::TraceEvent>& es) {
  std::vector<uint64_t> out;
  out.reserve(es.size() * 9);
  for (const obs::TraceEvent& e : es) {
    out.push_back(e.cycles);
    out.push_back(e.pc);
    out.push_back(e.a);
    out.push_back(e.b);
    out.push_back(static_cast<uint64_t>(e.kind));
    out.push_back(e.el);
    out.push_back(e.k1);
    out.push_back(e.k2);
    out.push_back(e.imm);
  }
  return out;
}

std::vector<uint64_t> encode_audit(const std::vector<obs::AuditEvent>& es) {
  std::vector<uint64_t> out;
  out.reserve(es.size() * 16);
  for (const obs::AuditEvent& e : es) {
    out.push_back(e.cycles);
    out.push_back(e.pc);
    out.push_back(e.ptr);
    out.push_back(e.ptr2);
    out.push_back(e.modifier);
    out.push_back(e.lr);
    out.push_back(e.prov);
    out.push_back(e.machine);
    out.push_back(static_cast<uint64_t>(e.kind));
    out.push_back(e.key);
    out.push_back(e.el);
    out.push_back(e.mclass);
    out.push_back(e.bank);
    out.push_back(e.aux);
    out.push_back(e.cpu);
    out.push_back(e.imm);
  }
  return out;
}

/// Everything the bit-identity contract covers, from one completed run.
struct RunRecord {
  std::vector<uint64_t> clocks;  ///< per-core {cycles, retired}
  uint64_t halt = 0;
  std::string console;
  std::vector<uint64_t> trace;
  std::vector<uint64_t> audit;

  bool operator==(const RunRecord& o) const {
    return clocks == o.clocks && halt == o.halt && console == o.console &&
           trace == o.trace && audit == o.audit;
  }
};

RunRecord record_run(Machine& m) {
  RunRecord r;
  EXPECT_TRUE(m.run());
  for (unsigned c = 0; c < m.cores(); ++c) {
    r.clocks.push_back(m.core(c).cycles());
    r.clocks.push_back(m.core(c).retired());
  }
  r.halt = m.halt_code();
  r.console = m.console();
  const obs::Collector* st = m.stats();
  EXPECT_NE(st, nullptr);
  r.trace = encode_trace(st->ring().snapshot());
  r.audit = encode_audit(st->audit_log().snapshot());
  return r;
}

RunRecord fresh_boot_reference(const Engines& e, unsigned cores) {
  Machine m(snap_config(e, cores));  // no caches: the classic boot path
  add_workload(m);
  m.boot();
  EXPECT_FALSE(m.forked());
  return record_run(m);
}

// ---------------------------------------------------------------------------
// Tentpole contract: a forked fleet is bit-identical to fresh boots across
// every engine combo × core count × job count.
// ---------------------------------------------------------------------------

TEST(Snapshot, ForkedFleetBitIdenticalToFreshBootAcrossCombos) {
  for (const unsigned cores : {1u, 2u}) {
    for (const Engines& e : kEngineCombos) {
      const RunRecord ref = fresh_boot_reference(e, cores);
      const std::string where =
          "cores=" + std::to_string(cores) +
          " fp=" + std::to_string(e.fast_path) +
          " sb=" + std::to_string(e.superblocks) +
          " tr=" + std::to_string(e.traces);
      for (const unsigned jobs : {1u, 4u}) {
        auto snap_cache = std::make_shared<SnapshotCache>();
        auto img_cache = std::make_shared<ImageCache>();
        par::Pool pool(jobs);
        struct Out {
          RunRecord rec;
          bool forked = false;
        };
        auto fleet = par::run_fleet(
            pool, 3,
            [&](size_t) {
              auto m = std::make_unique<Machine>(
                  snap_config(e, cores, snap_cache, img_cache));
              add_workload(*m);
              return m;
            },
            [](size_t, Machine& m) {
              m.boot();
              Out o;
              o.rec = record_run(m);
              o.forked = m.forked();
              return o;
            });
        unsigned forks = 0;
        for (const Out& o : fleet.results) {
          EXPECT_EQ(o.rec, ref) << where << " jobs=" << jobs;
          forks += o.forked ? 1 : 0;
        }
        // Exactly one template boot per signature; the other two forked.
        EXPECT_EQ(forks, 2u) << where << " jobs=" << jobs;
        EXPECT_EQ(snap_cache->stats().misses, 1u) << where;
        EXPECT_EQ(snap_cache->stats().hits, 2u) << where;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Sparse birth: a machine without a snapshot cache still allocates only the
// pages it writes (no up-front fill of its physical memory), and its
// registry carries no snap.* series.
// ---------------------------------------------------------------------------

TEST(Snapshot, FreshBootPrivatizesOnlyWrittenPages) {
  Machine m(snap_config(kEngineCombos[3], 1));  // no caches
  add_workload(m);
  m.boot();
  ASSERT_FALSE(m.forked());
  const mem::PhysicalMemory& pm = m.mmu().phys();
  const auto written_pages = [&] {
    uint64_t n = 0;
    for (uint64_t p = 0; p < pm.page_count(); ++p)
      n += pm.page_generation(p) != 0 ? 1 : 0;
    return n;
  };
  EXPECT_GT(pm.cow_pages(), 0u);
  EXPECT_LE(pm.cow_pages(), written_pages());
  EXPECT_LT(pm.cow_pages() * 32, pm.page_count());

  record_run(m);
  EXPECT_LE(pm.cow_pages(), written_pages());
  EXPECT_LT(pm.cow_pages() * 32, pm.page_count());
  const obs::Registry& reg = m.stats()->metrics();
  EXPECT_FALSE(reg.has_counter("snap.forks"));
  EXPECT_FALSE(reg.has_counter("snap.cow_pages"));
  EXPECT_EQ(reg.find_gauge("snap.shared_pages"), nullptr);
  EXPECT_EQ(reg.find_histogram("hist.snap.cow_pages"), nullptr);
}

TEST(Snapshot, PageStoreHoldsOnlyWrittenPages) {
  Machine m(snap_config(kEngineCombos[3], 1));
  add_workload(m);
  m.boot();
  const mem::PhysicalMemory& pm = m.mmu().phys();
  const MachineSnapshot snap = m.take_snapshot();
  const mem::PageStore& store = *snap.pages;
  // One entry per nonzero-generation page, in ascending page order, each
  // carrying that page's generation: a booted 64 MiB machine captures a few
  // dozen entries, not one per page.
  std::vector<uint64_t> written;
  for (uint64_t p = 0; p < pm.page_count(); ++p)
    if (pm.page_generation(p) != 0) written.push_back(p);
  ASSERT_EQ(store.pages.size(), written.size());
  EXPECT_LT(store.pages.size() * 32, pm.page_count());
  for (size_t i = 0; i < written.size(); ++i) {
    EXPECT_EQ(store.pages[i].index, written[i]);
    EXPECT_EQ(store.pages[i].generation, pm.page_generation(written[i]));
  }
}

// ---------------------------------------------------------------------------
// CoW isolation: a child's writes are invisible to the template and to
// sibling forks; page generations move only forward within the writer.
// ---------------------------------------------------------------------------

TEST(Snapshot, CowIsolationBetweenTemplateAndForks) {
  auto snap_cache = std::make_shared<SnapshotCache>();
  auto img_cache = std::make_shared<ImageCache>();
  const auto make = [&] {
    auto m = std::make_unique<Machine>(
        snap_config(kEngineCombos[3], 1, snap_cache, img_cache));
    add_workload(*m);
    m->boot();
    return m;
  };
  auto tmpl = make();  // first boot per signature: the template
  auto child1 = make();
  auto child2 = make();
  EXPECT_FALSE(tmpl->forked());
  EXPECT_TRUE(child1->forked());
  EXPECT_TRUE(child2->forked());

  // A fresh fork serves the template's entire contents from the shared
  // store: every page reads back identical and none is privatized.
  const mem::PhysicalMemory& pm1 = child1->mmu().phys();
  const mem::PhysicalMemory& pm0 = tmpl->mmu().phys();
  ASSERT_EQ(pm1.page_count(), pm0.page_count());
  std::vector<uint8_t> page0(mem::PhysicalMemory::kPageSize);
  std::vector<uint8_t> page1(mem::PhysicalMemory::kPageSize);
  for (uint64_t p = 0; p < pm1.page_count(); ++p) {
    const uint64_t pa = p << mem::PhysicalMemory::kPageShift;
    pm0.read_block(pa, page0.data(), page0.size());
    pm1.read_block(pa, page1.data(), page1.size());
    ASSERT_EQ(page0, page1) << "page " << p;
  }
  EXPECT_EQ(pm1.cow_pages(), 0u);
  EXPECT_EQ(pm1.shared_pages(), pm1.page_count());

  std::vector<uint64_t> gens_before(pm1.page_count());
  for (uint64_t p = 0; p < pm1.page_count(); ++p)
    gens_before[p] = pm1.page_generation(p);

  // The attacker's write primitive against a kernel global, on child1 only.
  const uint64_t before = tmpl->read_global(kSymPwnedFlag);
  child1->write_global(kSymPwnedFlag, 0x5AFE5AFE5AFE5AFEull);
  EXPECT_EQ(child1->read_global(kSymPwnedFlag), 0x5AFE5AFE5AFE5AFEull);
  EXPECT_EQ(tmpl->read_global(kSymPwnedFlag), before);
  EXPECT_EQ(child2->read_global(kSymPwnedFlag), before);

  // Exactly one page privatized by the aligned u64 write; generations are
  // monotonic within the writer and untouched in the siblings.
  EXPECT_EQ(pm1.cow_pages(), 1u);
  EXPECT_EQ(pm1.cow_pages() + pm1.shared_pages(), pm1.page_count());
  uint64_t bumped = 0;
  for (uint64_t p = 0; p < pm1.page_count(); ++p) {
    EXPECT_GE(pm1.page_generation(p), gens_before[p]) << "page " << p;
    bumped += pm1.page_generation(p) != gens_before[p] ? 1 : 0;
  }
  EXPECT_EQ(bumped, 1u);
  const mem::PhysicalMemory& pm2 = child2->mmu().phys();
  for (uint64_t p = 0; p < pm2.page_count(); ++p)
    EXPECT_EQ(pm2.page_generation(p), gens_before[p]) << "page " << p;

  // The tampered child is quarantined by CoW: template and untouched
  // sibling still run to the same bit-identical completion.
  const RunRecord a = record_run(*tmpl);
  const RunRecord b = record_run(*child2);
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Double fork: one snapshot stamps out any number of children directly
// through take_snapshot()/fork(), all bit-identical to a fresh boot.
// ---------------------------------------------------------------------------

TEST(Snapshot, DoubleForkFromOneSnapshot) {
  const Engines& e = kEngineCombos[2];
  const RunRecord ref = fresh_boot_reference(e, 1);

  auto snap_cache = std::make_shared<SnapshotCache>();
  Machine tmpl(snap_config(e, 1, snap_cache));
  add_workload(tmpl);
  tmpl.boot();
  const MachineSnapshot snap = tmpl.take_snapshot();
  EXPECT_TRUE(snap.pages != nullptr);
  EXPECT_TRUE(snap.boot != nullptr);
  EXPECT_EQ(snap.cores.size(), 1u);

  for (int i = 0; i < 2; ++i) {
    Machine child(snap_config(e, 1, snap_cache));
    add_workload(child);
    child.fork(snap);  // directly, bypassing the cache
    EXPECT_TRUE(child.forked());
    EXPECT_EQ(record_run(child), ref) << "fork #" << i;
  }
  // The template itself still runs to the same completion after donating
  // its snapshot (take_snapshot is non-destructive).
  EXPECT_EQ(record_run(tmpl), ref);
}

// ---------------------------------------------------------------------------
// Mid-run snapshot: capture after N steps, fork, and both machines converge
// to identical final state — checked through the flight-recorder digest
// path (obs/digest.h) on top of the usual run record.
// ---------------------------------------------------------------------------

TEST(Snapshot, MidRunSnapshotReplaysViaFlightDigest) {
  const Engines& e = kEngineCombos[1];
  auto snap_cache = std::make_shared<SnapshotCache>();

  Machine a(snap_config(e, 1, snap_cache));
  add_workload(a);
  a.boot();
  ASSERT_FALSE(a.run(4000));  // part-way: budget exhausted, not halted
  const MachineSnapshot mid = a.take_snapshot();

  Machine b(snap_config(e, 1, snap_cache));
  add_workload(b);
  b.fork(mid);
  EXPECT_TRUE(b.forked());

  // Same architectural state at the fork point: the flight digest covers
  // registers, PSTATE, key banks with provenance and MMU epochs.
  const auto digest_of = [](const Machine& m) {
    obs::FlightSnapshot s;
    m.fill_snapshot(s);
    return obs::snapshot_digest(s, m.cpu().cycles(), m.cpu().retired());
  };
  EXPECT_EQ(digest_of(b), digest_of(a));

  // Both continue to the same bit-identical completion.
  const RunRecord ra = record_run(a);
  const RunRecord rb = record_run(b);
  EXPECT_EQ(rb.clocks, ra.clocks);
  EXPECT_EQ(rb.halt, ra.halt);
  EXPECT_EQ(rb.console, ra.console);
  EXPECT_EQ(rb.trace, ra.trace);
  EXPECT_EQ(rb.audit, ra.audit);
  EXPECT_EQ(digest_of(b), digest_of(a));
}

}  // namespace
}  // namespace camo::kernel
