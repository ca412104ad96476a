// Memory subsystem tests: VA layout (paper Tables 1-2, Appendix A), stage-1
// translation and permissions, stage-2 overlay (XOM), physical memory.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "mem/mmu.h"
#include "mem/phys.h"
#include "mem/valayout.h"
#include "support/error.h"

namespace camo::mem {
namespace {

constexpr uint64_t kKernBase = 0xFFFF000000080000ull;
constexpr uint64_t kUserBase = 0x0000000000400000ull;

TEST(Phys, ReadWriteWidths) {
  PhysicalMemory pm(0x10000);
  pm.write64(0x100, 0x1122334455667788ull);
  EXPECT_EQ(pm.read64(0x100), 0x1122334455667788ull);
  EXPECT_EQ(pm.read32(0x100), 0x55667788u);
  EXPECT_EQ(pm.read8(0x107), 0x11u);
  pm.write8(0x100, 0xAA);
  EXPECT_EQ(pm.read64(0x100), 0x11223344556677AAull);
}

TEST(Phys, OutOfRangeThrows) {
  PhysicalMemory pm(0x1000);
  EXPECT_THROW(pm.read64(0x0FFD), camo::Error);
  EXPECT_THROW(pm.write8(0x1000, 1), camo::Error);
  EXPECT_NO_THROW(pm.read64(0x0FF8));
}

TEST(Phys, BlockOps) {
  PhysicalMemory pm(0x1000);
  const char data[] = "camouflage";
  pm.write_block(0x10, data, sizeof data);
  char out[sizeof data];
  pm.read_block(0x10, out, sizeof data);
  EXPECT_STREQ(out, "camouflage");
  pm.fill(0x10, 0, sizeof data);
  EXPECT_EQ(pm.read8(0x10), 0u);
}

TEST(Phys, WritesBumpPageGenerationReadsDoNot) {
  PhysicalMemory pm(0x3000);
  EXPECT_EQ(pm.page_count(), 3u);
  EXPECT_EQ(pm.page_generation(0), 0u);

  pm.write8(0x10, 1);
  pm.write32(0x20, 2);
  pm.write64(0x30, 3);
  EXPECT_EQ(pm.page_generation(0), 3u);
  EXPECT_EQ(pm.page_generation(1), 0u) << "other pages untouched";

  (void)pm.read64(0x10);
  char scratch[8];
  pm.read_block(0x10, scratch, sizeof scratch);
  EXPECT_EQ(pm.page_generation(0), 3u) << "reads never bump a generation";

  // A block write spanning a page boundary bumps both pages.
  const uint8_t data[8] = {};
  pm.write_block(0x0FFC, data, 8);
  EXPECT_EQ(pm.page_generation(0), 4u);
  EXPECT_EQ(pm.page_generation(1), 1u);
  pm.fill(0x2000, 0xFF, 0x1000);
  EXPECT_EQ(pm.page_generation(2), 1u);
  // Out-of-range pages read as generation 0 (never hold code).
  EXPECT_EQ(pm.page_generation(1000), 0u);
}

TEST(Phys, CrossPageWordAccesses) {
  PhysicalMemory pm(0x4000);
  pm.write32(0x0FFE, 0xA1B2C3D4u);
  EXPECT_EQ(pm.read32(0x0FFE), 0xA1B2C3D4u);
  EXPECT_EQ(pm.read8(0x0FFF), 0xC3u);
  EXPECT_EQ(pm.read8(0x1000), 0xB2u);
  pm.write64(0x1FFB, 0x0102030405060708ull);
  EXPECT_EQ(pm.read64(0x1FFB), 0x0102030405060708ull);
  EXPECT_EQ(pm.read32(0x1FFB), 0x05060708u);
  EXPECT_EQ(pm.read32(0x1FFF), 0x01020304u);
  EXPECT_EQ(pm.read64(0x0FFC), 0x0000A1B2C3D40000ull);
  // A read straddling into an untouched page reads its bytes as zero and
  // privatizes nothing.
  EXPECT_EQ(pm.read64(0x2FFC), 0u);
  EXPECT_EQ(pm.cow_pages(), 3u);
  EXPECT_EQ(pm.page_generation(3), 0u);
  EXPECT_EQ(pm.page_generation(0), 1u);
  EXPECT_EQ(pm.page_generation(1), 2u);
  EXPECT_EQ(pm.page_generation(2), 1u);
}

/// The store entry for page `p`, or null when the store has none (the page
/// was never written).
const PageStore::Page* store_page(const PageStore& store, uint64_t p) {
  for (const PageStore::Page& page : store.pages)
    if (page.index == p) return &page;
  return nullptr;
}

/// Every page of `a` and `b` reads the same bytes at the same generation.
void expect_same_pages(const PhysicalMemory& a, const PhysicalMemory& b) {
  ASSERT_EQ(a.page_count(), b.page_count());
  for (uint64_t p = 0; p < a.page_count(); ++p) {
    const uint64_t pa = p << PhysicalMemory::kPageShift;
    const uint64_t len =
        std::min<uint64_t>(PhysicalMemory::kPageSize, a.size() - pa);
    std::vector<uint8_t> bytes_a(len), bytes_b(len);
    a.read_block(pa, bytes_a.data(), len);
    b.read_block(pa, bytes_b.data(), len);
    EXPECT_EQ(bytes_a, bytes_b) << "page " << p;
    EXPECT_EQ(a.page_generation(p), b.page_generation(p)) << "page " << p;
  }
}

TEST(Phys, PartialLastPageThroughSnapshotAndAdopt) {
  constexpr uint64_t kSize = 0x1800;  // one full page plus half a page
  PhysicalMemory pm(kSize);
  EXPECT_EQ(pm.page_count(), 2u);
  pm.write64(kSize - 8, 0x1122334455667788ull);
  EXPECT_THROW(pm.write8(kSize, 1), camo::Error);
  const auto store = pm.snapshot();
  EXPECT_EQ(store_page(*store, 0), nullptr) << "never written: the zero page";
  const PageStore::Page* last = store_page(*store, 1);
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->generation, 1u);
  ASSERT_EQ(last->bytes.size(), kSize - 0x1000);

  PhysicalMemory fork(kSize);
  fork.adopt(store);
  EXPECT_EQ(fork.cow_pages(), 0u);
  EXPECT_EQ(fork.read64(kSize - 8), 0x1122334455667788ull);
  // Privatizing the partial page copies only its in-range bytes; the
  // re-captured store page keeps exactly the in-range span.
  fork.write8(0x1000, 0x5A);
  EXPECT_EQ(fork.cow_pages(), 1u);
  const auto again = fork.snapshot();
  const PageStore::Page* again_last = store_page(*again, 1);
  ASSERT_NE(again_last, nullptr);
  EXPECT_EQ(again_last->generation, 2u);
  ASSERT_EQ(again_last->bytes.size(), kSize - 0x1000);
  EXPECT_EQ(again_last->bytes.front(), 0x5Au);
  EXPECT_EQ(fork.read64(kSize - 8), 0x1122334455667788ull);
  EXPECT_EQ(pm.read8(0x1000), 0u) << "the template never sees fork writes";
}

TEST(Phys, ZeroFillOfUntouchedPageAllocatesNothing) {
  PhysicalMemory pm(0x4000);
  pm.fill(0x1000, 0, 0x2000);
  EXPECT_EQ(pm.cow_pages(), 0u);
  EXPECT_EQ(pm.shared_pages(), pm.page_count());
  EXPECT_EQ(pm.page_generation(1), 1u) << "the fill still bumps generations";
  EXPECT_EQ(pm.page_generation(2), 1u);
  EXPECT_EQ(pm.page_generation(3), 0u);
  // Non-zero fills, and zero fills over written pages, do privatize.
  pm.write8(0x3000, 7);
  pm.fill(0x3000, 0, 0x10);
  EXPECT_EQ(pm.read8(0x3000), 0u);
  pm.fill(0x0, 0xEE, 4);
  EXPECT_EQ(pm.read32(0x0), 0xEEEEEEEEu);
  EXPECT_EQ(pm.cow_pages(), 2u);
  // Pages written back to all-zero are captured as the zero page.
  const auto store = pm.snapshot();
  const PageStore::Page* zeroed = store_page(*store, 3);
  ASSERT_NE(zeroed, nullptr);
  EXPECT_TRUE(zeroed->bytes.empty());
  EXPECT_EQ(zeroed->generation, 2u);
  for (const uint64_t p : {1u, 2u}) {
    ASSERT_NE(store_page(*store, p), nullptr) << "page " << p;
    EXPECT_TRUE(store_page(*store, p)->bytes.empty()) << "page " << p;
  }
  ASSERT_NE(store_page(*store, 0), nullptr);
  EXPECT_EQ(store_page(*store, 0)->bytes.size(), PhysicalMemory::kPageSize);
}

TEST(Phys, StoreHoldsOneEntryPerWrittenPage) {
  PhysicalMemory pm(0x40000);  // 64 pages
  pm.write8(0x5000, 1);
  pm.write64(0x5008, 2);
  pm.write32(0x0FFE, 0xA1B2C3D4u);  // straddles pages 0 and 1
  pm.fill(0x20000, 0, 0x3000);  // pages 32..34, still reading zero
  pm.write_block(0x3F000, "tail", 4);
  const auto store = pm.snapshot();
  std::vector<uint64_t> indices, gens;
  for (const PageStore::Page& page : store->pages) {
    indices.push_back(page.index);
    gens.push_back(page.generation);
  }
  EXPECT_EQ(indices, (std::vector<uint64_t>{0, 1, 5, 32, 33, 34, 63}))
      << "ascending, exactly the nonzero-generation pages";
  EXPECT_EQ(gens, (std::vector<uint64_t>{1, 1, 2, 1, 1, 1, 1}));
  uint64_t written = 0;
  for (uint64_t p = 0; p < pm.page_count(); ++p)
    written += pm.page_generation(p) != 0 ? 1 : 0;
  EXPECT_EQ(store->pages.size(), written);
  for (const PageStore::Page& page : store->pages)
    EXPECT_EQ(page.bytes.empty(), page.index >= 32 && page.index <= 34)
        << "page " << page.index;
}

TEST(Phys, ZeroedPageKeepsGenerationThroughAdopt) {
  PhysicalMemory pm(0x3000);
  pm.write64(0x1010, 0xDEADBEEFull);
  pm.write64(0x1010, 0);  // back to all-zero
  const auto store = pm.snapshot();
  const PageStore::Page* page = store_page(*store, 1);
  ASSERT_NE(page, nullptr);
  EXPECT_TRUE(page->bytes.empty());

  PhysicalMemory fork(0x3000);
  fork.adopt(store);
  EXPECT_EQ(fork.page_generation(1), 2u)
      << "the generation survives although the bytes are not stored";
  EXPECT_EQ(fork.read64(0x1010), 0u);
  uint8_t bytes[PhysicalMemory::kPageSize];
  fork.read_block(0x1000, bytes, sizeof bytes);
  EXPECT_TRUE(std::all_of(bytes, bytes + sizeof bytes,
                          [](uint8_t b) { return b == 0; }));
  EXPECT_EQ(fork.cow_pages(), 0u) << "reading a zeroed page allocates nothing";
  // The next write still bumps past the inherited generation.
  fork.write8(0x1000, 1);
  EXPECT_EQ(fork.page_generation(1), 3u);
}

TEST(Phys, AdoptDropsPreAdoptOverlays) {
  PhysicalMemory tmpl(0x4000);
  tmpl.write64(0x1000, 0x1111);
  const auto store = tmpl.snapshot();

  PhysicalMemory fork(0x4000);
  fork.write64(0x1000, 0x2222);  // a page the store holds
  fork.write64(0x2000, 0x3333);  // a page the store does not hold
  EXPECT_EQ(fork.cow_pages(), 2u);
  fork.adopt(store);
  EXPECT_EQ(fork.cow_pages(), 0u);
  EXPECT_EQ(fork.shared_pages(), fork.page_count());
  EXPECT_EQ(fork.read64(0x1000), 0x1111u) << "reads come from the store";
  EXPECT_EQ(fork.read64(0x2000), 0u) << "and the zero page";
  EXPECT_EQ(fork.page_generation(1), 1u);
  EXPECT_EQ(fork.page_generation(2), 0u);
  expect_same_pages(fork, tmpl);
  // Adopting again over a store-only view keeps serving the store.
  fork.adopt(store);
  EXPECT_EQ(fork.read64(0x1000), 0x1111u);
}

TEST(Phys, ForkOfForkMatchesItsParentPageByPage) {
  constexpr uint64_t kSize = 0x8800;  // 8 full pages and a partial one
  PhysicalMemory tmpl(kSize);
  tmpl.write64(0x0100, 0xA1);
  tmpl.fill(0x2000, 0x5C, 0x1800);
  tmpl.write32(kSize - 4, 0xB2);  // the partial last page
  PhysicalMemory child(kSize);
  child.adopt(tmpl.snapshot());
  child.write64(0x0100, 0);            // zeroes a store page
  child.write64(0x4000, 0xC3);         // privatizes an untouched page
  child.fill(0x2800, 0, 0x10);         // edits a store page
  PhysicalMemory grandchild(kSize);
  grandchild.write8(0x7000, 9);        // a pre-adopt overlay, dropped below
  grandchild.adopt(child.snapshot());
  expect_same_pages(grandchild, child);
  EXPECT_EQ(grandchild.cow_pages(), 0u);
  // Diverging afterwards stays private to the grandchild.
  grandchild.write8(0x2000, 0x77);
  EXPECT_EQ(child.read8(0x2000), 0x5Cu);
  EXPECT_EQ(tmpl.read8(0x2000), 0x5Cu);
}

TEST(Phys, OutOfRangeThrowsForEveryAccessor) {
  PhysicalMemory pm(0x2000);
  uint8_t buf[16] = {};
  EXPECT_THROW(pm.read8(0x2000), camo::Error);
  EXPECT_THROW(pm.read32(0x1FFE), camo::Error);
  EXPECT_THROW(pm.write32(0x1FFD, 0), camo::Error);
  EXPECT_THROW(pm.write64(0x1FF9, 0), camo::Error);
  EXPECT_THROW(pm.read_block(0x1FF8, buf, sizeof buf), camo::Error);
  EXPECT_THROW(pm.write_block(0x1FF8, buf, sizeof buf), camo::Error);
  EXPECT_THROW(pm.fill(0x1000, 0xFF, 0x1001), camo::Error);
  EXPECT_THROW(pm.read64(~uint64_t{0} - 3), camo::Error) << "no wraparound";
  EXPECT_EQ(pm.cow_pages(), 0u) << "a rejected access touches nothing";
  EXPECT_EQ(pm.page_generation(1), 0u);
  PhysicalMemory other(0x3000);
  EXPECT_THROW(pm.adopt(other.snapshot()), camo::Error);
  EXPECT_THROW(pm.adopt(nullptr), camo::Error);
}

// ---------------------------------------------------------------------------
// VaLayout
// ---------------------------------------------------------------------------

TEST(VaLayout, KernelHalfSelection) {
  EXPECT_TRUE(VaLayout::is_kernel_va(0xFFFF000000000000ull));
  EXPECT_FALSE(VaLayout::is_kernel_va(0x0000FFFFFFFFFFFFull));
  // Bit 55 is the selector even with a tag byte present.
  EXPECT_TRUE(VaLayout::is_kernel_va(uint64_t{1} << 55));
}

TEST(VaLayout, PacWidthMatchesPaper) {
  // §5.4: "with typical Linux page and virtual address configurations the
  // space remaining for the PACs is 15 bits" (kernel, TBI off). User space
  // with TBI gets 7 bits.
  VaLayout l;
  EXPECT_EQ(l.pac_width(kKernBase), 15u);
  EXPECT_EQ(l.pac_width(kUserBase), 7u);
}

TEST(VaLayout, PacWidthScalesWithVaBits) {
  // Appendix B: PACs can have up to 31 bits with small VA spaces.
  VaLayout l;
  l.va_bits = 32;
  l.tbi_kernel = false;
  EXPECT_EQ(l.pac_width(kKernBase), 31u);
  l.va_bits = 39;
  EXPECT_EQ(l.pac_width(kKernBase), 24u);
}

TEST(VaLayout, PacMaskExcludesBit55) {
  VaLayout l;
  EXPECT_FALSE(l.pac_mask(kKernBase) & (uint64_t{1} << 55));
  EXPECT_FALSE(l.pac_mask(kUserBase) & (uint64_t{1} << 55));
  // Kernel mask covers the top byte (TBI off), user mask does not.
  EXPECT_TRUE(l.pac_mask(kKernBase) & (uint64_t{1} << 63));
  EXPECT_FALSE(l.pac_mask(kUserBase) & (uint64_t{1} << 63));
}

TEST(VaLayout, Canonical) {
  VaLayout l;
  EXPECT_TRUE(l.is_canonical(kKernBase));
  EXPECT_TRUE(l.is_canonical(kUserBase));
  EXPECT_FALSE(l.is_canonical(kKernBase & ~(uint64_t{1} << 62)));
  // User pointers with a tag byte are canonical under TBI...
  EXPECT_TRUE(l.is_canonical(0xAB00000000400000ull));
  // ...but garbage in bits 54:48 is not.
  EXPECT_FALSE(l.is_canonical(0x0001000000400000ull));
  EXPECT_EQ(l.canonical(kKernBase ^ (uint64_t{1} << 60)), kKernBase);
}

TEST(VaLayout, TablesRender) {
  VaLayout l;
  const std::string t1 = l.render_table1();
  EXPECT_NE(t1.find("0xffff000000000000"), std::string::npos);
  EXPECT_NE(t1.find("Kernel"), std::string::npos);
  EXPECT_NE(t1.find("Invalid"), std::string::npos);
  const std::string t2 = l.render_table2();
  EXPECT_NE(t2.find("user="), std::string::npos);
  EXPECT_NE(t2.find("kernel=15"), std::string::npos);
  EXPECT_NE(t2.find("tttttttt"), std::string::npos);  // user tag byte
}

// ---------------------------------------------------------------------------
// Translation
// ---------------------------------------------------------------------------

class MmuTest : public ::testing::Test {
 protected:
  MmuTest() : pm(1 << 20), mmu(pm, VaLayout{}) {
    kmap.map_range(kKernBase, 0x10000, 0x3000, PagePerms::kernel_rw());
    kmap.map_range(kKernBase + 0x3000, 0x13000, 0x1000,
                   PagePerms::kernel_text());
    umap.map_range(kUserBase, 0x20000, 0x2000, PagePerms::user_rw());
    umap.map_range(kUserBase + 0x2000, 0x22000, 0x1000, PagePerms::user_text());
    mmu.set_kernel_map(&kmap);
    mmu.set_user_map(&umap);
  }
  PhysicalMemory pm;
  Stage1Map kmap, umap;
  Stage2Map s2;
  Mmu mmu;
};

TEST_F(MmuTest, BasicTranslation) {
  const auto r = mmu.translate(kKernBase + 0x1234, Access::Read, El::El1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.pa, 0x11234u);
}

TEST_F(MmuTest, UnmappedFaults) {
  const auto r = mmu.translate(kKernBase + 0x100000, Access::Read, El::El1);
  EXPECT_EQ(r.fault, FaultKind::Translation);
}

TEST_F(MmuTest, NonCanonicalAddressSizeFault) {
  const auto r =
      mmu.translate(kKernBase & ~(uint64_t{1} << 60), Access::Read, El::El1);
  EXPECT_EQ(r.fault, FaultKind::AddressSize);
}

TEST_F(MmuTest, KernelRwNotExecutable) {
  EXPECT_TRUE(mmu.translate(kKernBase, Access::Write, El::El1).ok());
  EXPECT_EQ(mmu.translate(kKernBase, Access::Fetch, El::El1).fault,
            FaultKind::Permission);
}

TEST_F(MmuTest, KernelTextNotWritable) {
  const uint64_t text = kKernBase + 0x3000;
  EXPECT_TRUE(mmu.translate(text, Access::Fetch, El::El1).ok());
  EXPECT_TRUE(mmu.translate(text, Access::Read, El::El1).ok());
  EXPECT_EQ(mmu.translate(text, Access::Write, El::El1).fault,
            FaultKind::Permission);
}

TEST_F(MmuTest, UserCannotTouchKernel) {
  EXPECT_EQ(mmu.translate(kKernBase, Access::Read, El::El0).fault,
            FaultKind::Permission);
  EXPECT_EQ(mmu.translate(kKernBase + 0x3000, Access::Fetch, El::El0).fault,
            FaultKind::Permission);
}

TEST_F(MmuTest, KernelCanReadUserButNotExecute) {
  // PXN semantics: kernel must never fetch from user-executable pages.
  EXPECT_TRUE(mmu.translate(kUserBase, Access::Read, El::El1).ok());
  EXPECT_TRUE(mmu.translate(kUserBase, Access::Write, El::El1).ok());
  EXPECT_EQ(mmu.translate(kUserBase + 0x2000, Access::Fetch, El::El1).fault,
            FaultKind::Permission);
}

TEST_F(MmuTest, TbiTagIgnoredForUserTranslation) {
  const uint64_t tagged = 0xAB00000000400010ull;
  const auto r = mmu.translate(tagged, Access::Read, El::El0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.pa, 0x20010u);
}

TEST_F(MmuTest, Stage2XomBlocksReadAllowsFetch) {
  // The heart of the key-concealment design (§5.1 / Appendix A.2): stage-2
  // removes the read permission that stage-1 EL1 mappings imply.
  kmap.map_range(kKernBase + 0x4000, 0x14000, 0x1000,
                 PagePerms::kernel_text());
  s2.restrict_range(0x14000, 0x1000, Stage2Map::xom());
  mmu.set_stage2(&s2);

  const uint64_t xom = kKernBase + 0x4000;
  EXPECT_TRUE(mmu.translate(xom, Access::Fetch, El::El1).ok());
  EXPECT_EQ(mmu.translate(xom, Access::Read, El::El1).fault, FaultKind::Stage2);
  EXPECT_EQ(mmu.translate(xom, Access::Write, El::El1).fault,
            FaultKind::Permission);  // stage-1 already denies writes
}

TEST_F(MmuTest, Stage2DoesNotApplyToHypervisor) {
  s2.restrict_range(0x10000, 0x1000, Stage2Map::xom());
  mmu.set_stage2(&s2);
  EXPECT_TRUE(mmu.translate(kKernBase, Access::Read, El::El2).ok());
  EXPECT_EQ(mmu.translate(kKernBase, Access::Read, El::El1).fault,
            FaultKind::Stage2);
}

TEST_F(MmuTest, Stage2ReadOnlyLocksData) {
  s2.restrict_range(0x10000, 0x1000, Stage2Map::read_only());
  mmu.set_stage2(&s2);
  EXPECT_TRUE(mmu.translate(kKernBase, Access::Read, El::El1).ok());
  EXPECT_EQ(mmu.translate(kKernBase, Access::Write, El::El1).fault,
            FaultKind::Stage2);
}

TEST_F(MmuTest, AccessorHelpers) {
  ASSERT_EQ(mmu.write64(kKernBase + 8, 0xCAFE, El::El1), FaultKind::None);
  const auto r = mmu.read64(kKernBase + 8, El::El1);
  EXPECT_EQ(r.fault, FaultKind::None);
  EXPECT_EQ(r.value, 0xCAFEu);
  EXPECT_EQ(mmu.read64(kKernBase + 0x100000, El::El1).fault,
            FaultKind::Translation);
}

TEST_F(MmuTest, ProtectRangeChangesPerms) {
  kmap.protect_range(kKernBase, 0x1000, PagePerms::kernel_ro());
  EXPECT_EQ(mmu.translate(kKernBase, Access::Write, El::El1).fault,
            FaultKind::Permission);
  EXPECT_TRUE(mmu.translate(kKernBase, Access::Read, El::El1).ok());
}

TEST(Stage1Map, UnalignedMapThrows) {
  Stage1Map m;
  EXPECT_THROW(m.map_range(0x1001, 0x2000, 0x1000, PagePerms::kernel_rw()),
               camo::Error);
}

// ---------------------------------------------------------------------------
// Fast path: generation counters + micro-TLB (DESIGN.md §3c)
// ---------------------------------------------------------------------------

TEST(Stage1Map, GenerationBumpsOnEveryMutation) {
  Stage1Map m;
  EXPECT_EQ(m.generation(), 0u);
  m.map_page(0x1000, 0x2000, PagePerms::kernel_rw());
  const uint64_t g1 = m.generation();
  EXPECT_GT(g1, 0u);
  m.protect_range(0x1000, 0x1000, PagePerms::kernel_ro());
  const uint64_t g2 = m.generation();
  EXPECT_GT(g2, g1);
  m.unmap_page(0x1000);
  EXPECT_GT(m.generation(), g2);
}

TEST(Stage2Map, GenerationBumpsOnRestrict) {
  Stage2Map m;
  EXPECT_EQ(m.generation(), 0u);
  m.restrict_page(0x4000, Stage2Map::xom());
  const uint64_t g1 = m.generation();
  EXPECT_GT(g1, 0u);
  m.restrict_range(0x8000, 0x2000, Stage2Map::read_only());
  EXPECT_GT(m.generation(), g1);
}

TEST_F(MmuTest, TlbHitRepaysRepeatedTranslation) {
  const auto before = mmu.tlb_stats();
  const auto r1 = mmu.translate(kKernBase + 0x10, Access::Read, El::El1);
  const auto r2 = mmu.translate(kKernBase + 0x18, Access::Read, El::El1);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.pa, r1.pa + 8);
  EXPECT_EQ(mmu.tlb_stats().misses, before.misses + 1);
  EXPECT_EQ(mmu.tlb_stats().hits, before.hits + 1);
}

TEST_F(MmuTest, TbiTaggedAndUntaggedShareOneTlbEntry) {
  // The TLB tag is the post-TBI canonical page number, so the tagged form
  // must hit the entry the untagged form installed (and vice versa).
  const uint64_t untagged = kUserBase + 0x10;
  const uint64_t tagged = 0xAB00000000400010ull;
  const auto r1 = mmu.translate(untagged, Access::Read, El::El0);
  const auto before = mmu.tlb_stats();
  const auto r2 = mmu.translate(tagged, Access::Read, El::El0);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.pa, r2.pa);
  EXPECT_EQ(mmu.tlb_stats().hits, before.hits + 1) << "tagged form must hit";
  EXPECT_EQ(mmu.tlb_stats().misses, before.misses);
}

TEST_F(MmuTest, NonCanonicalFaultsIdenticallyWithCachesOn) {
  // Warm the TLB with the legitimate pointer, then present its PAC-poisoned
  // (non-canonical) form: it must fault before the probe, for data and fetch
  // alike, exactly as with the fast path off.
  ASSERT_TRUE(mmu.translate(kUserBase, Access::Read, El::El0).ok());
  const uint64_t poisoned = kUserBase | (uint64_t{0x41} << 48);  // bits 54:48
  const auto hits_before = mmu.tlb_stats().hits;
  EXPECT_EQ(mmu.translate(poisoned, Access::Read, El::El0).fault,
            FaultKind::AddressSize);
  EXPECT_EQ(mmu.translate(poisoned, Access::Fetch, El::El0).fault,
            FaultKind::AddressSize);
  EXPECT_EQ(mmu.tlb_stats().hits, hits_before)
      << "a poisoned VA must never hit a cached translation";

  mmu.set_fast_path(false);
  EXPECT_EQ(mmu.translate(poisoned, Access::Read, El::El0).fault,
            FaultKind::AddressSize);
  EXPECT_EQ(mmu.translate(poisoned, Access::Fetch, El::El0).fault,
            FaultKind::AddressSize);
}

TEST_F(MmuTest, FaultingTranslationsAreNeverCached) {
  const uint64_t unmapped = kKernBase + 0x100000;
  EXPECT_EQ(mmu.translate(unmapped, Access::Read, El::El1).fault,
            FaultKind::Translation);
  const auto before = mmu.tlb_stats();
  EXPECT_EQ(mmu.translate(unmapped, Access::Read, El::El1).fault,
            FaultKind::Translation);
  EXPECT_EQ(mmu.tlb_stats().hits, before.hits);
  EXPECT_EQ(mmu.tlb_stats().misses, before.misses + 1);
}

TEST_F(MmuTest, ProtectRangeVisibleOnTheVeryNextAccess) {
  // Warm both the read and write ways, then drop the write permission: the
  // generation bump must invalidate the cached write translation instantly.
  ASSERT_TRUE(mmu.translate(kKernBase, Access::Write, El::El1).ok());
  ASSERT_TRUE(mmu.translate(kKernBase, Access::Read, El::El1).ok());
  kmap.protect_range(kKernBase, 0x1000, PagePerms::kernel_ro());
  EXPECT_EQ(mmu.translate(kKernBase, Access::Write, El::El1).fault,
            FaultKind::Permission);
  EXPECT_TRUE(mmu.translate(kKernBase, Access::Read, El::El1).ok());
}

TEST_F(MmuTest, Stage2RestrictVisibleOnTheVeryNextAccess) {
  mmu.set_stage2(&s2);
  ASSERT_TRUE(mmu.translate(kKernBase, Access::Read, El::El1).ok());  // warm
  s2.restrict_range(0x10000, 0x1000, Stage2Map::xom());
  EXPECT_EQ(mmu.translate(kKernBase, Access::Read, El::El1).fault,
            FaultKind::Stage2);
}

TEST_F(MmuTest, MapSwapNeverServesOtherMapsPa) {
  // Two address spaces with the same VA mapped to different PAs: switching
  // A -> B -> A must always return the installed map's PA, although entries
  // of both maps stay in the TLB (they are told apart by map uid).
  Stage1Map other;
  other.map_range(kUserBase, 0x30000, 0x1000, PagePerms::user_rw());
  for (int round = 0; round < 2; ++round) {
    mmu.set_user_map(&umap);
    for (Access a : {Access::Read, Access::Write}) {
      const auto r = mmu.translate(kUserBase + 0x40, a, El::El0);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.pa, 0x20040u) << "round " << round;
    }
    mmu.set_user_map(&other);
    for (Access a : {Access::Read, Access::Write}) {
      const auto r = mmu.translate(kUserBase + 0x40, a, El::El0);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.pa, 0x30040u) << "round " << round;
    }
  }
}

TEST_F(MmuTest, UserMapSwitchKeepsEntriesWithoutFlushing) {
  // A -> B -> A: the switches flush nothing, kernel-half translations keep
  // hitting throughout, and A's own entries hit again once A is back.
  Stage1Map other;
  other.map_range(kUserBase, 0x30000, 0x1000, PagePerms::user_rw());
  ASSERT_TRUE(mmu.translate(kKernBase, Access::Read, El::El1).ok());
  ASSERT_TRUE(mmu.translate(kUserBase, Access::Read, El::El0).ok());
  const auto before = mmu.tlb_stats();
  for (const Stage1Map* m : {&other, &umap}) {
    mmu.set_user_map(m);
    const auto hits = mmu.tlb_stats().hits;
    EXPECT_EQ(mmu.translate(kKernBase, Access::Read, El::El1).pa, 0x10000u);
    EXPECT_EQ(mmu.tlb_stats().hits, hits + 1) << "kernel entry must survive";
  }
  const auto hits = mmu.tlb_stats().hits;
  EXPECT_EQ(mmu.translate(kUserBase, Access::Read, El::El0).pa, 0x20000u);
  EXPECT_EQ(mmu.tlb_stats().hits, hits + 1) << "A's entry must hit again";
  EXPECT_EQ(mmu.tlb_stats().flushes, before.flushes);
  EXPECT_EQ(mmu.tlb_stats().misses, before.misses);
}

TEST_F(MmuTest, MapRebuiltAtSameAddressNeverHitsStaleEntry) {
  // A map destroyed and rebuilt in the same storage has the same address
  // and the same generation, but a fresh uid: its first access must miss.
  std::optional<Stage1Map> slot;
  slot.emplace().map_range(kUserBase, 0x30000, 0x1000, PagePerms::user_rw());
  const Stage1Map* const first = &*slot;
  const uint64_t first_uid = slot->uid(), first_gen = slot->generation();
  mmu.set_user_map(first);
  ASSERT_EQ(mmu.translate(kUserBase, Access::Read, El::El0).pa, 0x30000u);
  mmu.set_user_map(&umap);
  slot.reset();
  slot.emplace().map_range(kUserBase, 0x40000, 0x1000, PagePerms::user_rw());
  ASSERT_EQ(&*slot, first);
  ASSERT_EQ(slot->generation(), first_gen);
  ASSERT_NE(slot->uid(), first_uid);
  mmu.set_user_map(&*slot);
  const auto before = mmu.tlb_stats();
  EXPECT_EQ(mmu.translate(kUserBase, Access::Read, El::El0).pa, 0x40000u);
  EXPECT_EQ(mmu.tlb_stats().hits, before.hits);
  EXPECT_EQ(mmu.tlb_stats().misses, before.misses + 1);
}

TEST_F(MmuTest, PoisonedPointerFaultsAcrossMapSwitches) {
  // Entries that survive a user-map switch must not let a PAC-poisoned form
  // of a cached address through: the canonical check precedes the probe.
  Stage1Map other;
  other.map_range(kUserBase, 0x30000, 0x1000, PagePerms::user_rw());
  const uint64_t poisoned = kUserBase | (uint64_t{0x41} << 48);
  for (const Stage1Map* m : {&umap, &other, &umap}) {
    mmu.set_user_map(m);
    ASSERT_TRUE(mmu.translate(kUserBase, Access::Read, El::El0).ok());
    const auto hits = mmu.tlb_stats().hits;
    EXPECT_EQ(mmu.translate(poisoned, Access::Read, El::El0).fault,
              FaultKind::AddressSize);
    EXPECT_EQ(mmu.tlb_stats().hits, hits);
  }
}

TEST_F(MmuTest, KernelMapAndStage2InstallStillFlush) {
  // Re-installing the very same map would hit without a flush; these two
  // setters must still drop every cached translation.
  mmu.set_stage2(&s2);
  ASSERT_TRUE(mmu.translate(kKernBase, Access::Read, El::El1).ok());
  for (int which = 0; which < 2; ++which) {
    const auto before = mmu.tlb_stats();
    if (which == 0) mmu.set_kernel_map(&kmap);
    else mmu.set_stage2(&s2);
    EXPECT_EQ(mmu.tlb_stats().flushes, before.flushes + 1);
    ASSERT_TRUE(mmu.translate(kKernBase, Access::Read, El::El1).ok());
    EXPECT_EQ(mmu.tlb_stats().hits, before.hits);
    EXPECT_EQ(mmu.tlb_stats().misses, before.misses + 1);
  }
}

TEST_F(MmuTest, FastPathOffTakesNoTlbStats) {
  mmu.set_fast_path(false);
  const auto before = mmu.tlb_stats();
  ASSERT_TRUE(mmu.translate(kKernBase, Access::Read, El::El1).ok());
  ASSERT_TRUE(mmu.translate(kKernBase, Access::Read, El::El1).ok());
  EXPECT_EQ(mmu.tlb_stats().hits, before.hits);
  EXPECT_EQ(mmu.tlb_stats().misses, before.misses);
}

}  // namespace
}  // namespace camo::mem
