#include "mem/phys.h"

#include <algorithm>
#include <cstring>

#include "support/error.h"
#include "support/format.h"

namespace camo::mem {

namespace {
/// Bytes of page `p` still inside a memory of `size` bytes (the last page
/// may be partial when the size is not page aligned).
uint64_t page_span(uint64_t p, uint64_t size) {
  const uint64_t base = p << PhysicalMemory::kPageShift;
  return std::min<uint64_t>(PhysicalMemory::kPageSize, size - base);
}
}  // namespace

PhysicalMemory::PhysicalMemory(uint64_t size_bytes)
    : size_(size_bytes),
      overlay_((size_bytes + kPageSize - 1) >> kPageShift),
      read_ptr_(overlay_.size(), nullptr),
      page_gen_(overlay_.size(), 0) {}

void PhysicalMemory::check(uint64_t pa, uint64_t len) const {
  if (pa > size_ || len > size_ - pa)
    fail("physical access out of range: " + hex_short(pa) + " len " +
         std::to_string(len));
}

uint8_t* PhysicalMemory::page_mut(uint64_t p) {
  if (overlay_[p]) return overlay_[p].get();
  // Value-initialized, so bytes past a partial store page (and past the end
  // of a partial last page) stay zero.
  auto page = std::make_unique<uint8_t[]>(kPageSize);
  // A non-overlay read view can only be a store page, which holds the
  // page's whole in-range span.
  if (read_ptr_[p] != nullptr)
    std::memcpy(page.get(), read_ptr_[p], page_span(p, size_));
  read_ptr_[p] = page.get();
  overlay_[p] = std::move(page);
  ++cow_count_;
  return overlay_[p].get();
}

void PhysicalMemory::copy_in(uint64_t pa, const uint8_t* src, uint64_t len) {
  while (len > 0) {
    const uint64_t off = pa & (kPageSize - 1);
    const uint64_t chunk = std::min<uint64_t>(len, kPageSize - off);
    std::memcpy(page_mut(pa >> kPageShift) + off, src, chunk);
    pa += chunk;
    src += chunk;
    len -= chunk;
  }
}

void PhysicalMemory::copy_out(uint64_t pa, uint8_t* dst, uint64_t len) const {
  while (len > 0) {
    const uint64_t off = pa & (kPageSize - 1);
    const uint64_t chunk = std::min<uint64_t>(len, kPageSize - off);
    const uint8_t* p = read_ptr_[pa >> kPageShift];
    if (p != nullptr)
      std::memcpy(dst, p + off, chunk);
    else
      std::memset(dst, 0, chunk);
    pa += chunk;
    dst += chunk;
    len -= chunk;
  }
}

uint8_t PhysicalMemory::read8(uint64_t pa) const {
  check(pa, 1);
  const uint8_t* p = read_ptr_[pa >> kPageShift];
  return p != nullptr ? p[pa & (kPageSize - 1)] : 0;
}

uint32_t PhysicalMemory::read32(uint64_t pa) const {
  check(pa, 4);
  uint32_t v;
  const uint64_t off = pa & (kPageSize - 1);
  if (off <= kPageSize - 4) {
    const uint8_t* p = read_ptr_[pa >> kPageShift];
    if (p == nullptr) return 0;
    std::memcpy(&v, p + off, 4);
    return v;
  }
  copy_out(pa, reinterpret_cast<uint8_t*>(&v), 4);
  return v;
}

uint64_t PhysicalMemory::read64(uint64_t pa) const {
  check(pa, 8);
  uint64_t v;
  const uint64_t off = pa & (kPageSize - 1);
  if (off <= kPageSize - 8) {
    const uint8_t* p = read_ptr_[pa >> kPageShift];
    if (p == nullptr) return 0;
    std::memcpy(&v, p + off, 8);
    return v;
  }
  copy_out(pa, reinterpret_cast<uint8_t*>(&v), 8);
  return v;
}

void PhysicalMemory::write8(uint64_t pa, uint8_t v) {
  check(pa, 1);
  touch(pa, 1);
  page_mut(pa >> kPageShift)[pa & (kPageSize - 1)] = v;
}

void PhysicalMemory::write32(uint64_t pa, uint32_t v) {
  check(pa, 4);
  touch(pa, 4);
  const uint64_t off = pa & (kPageSize - 1);
  if (off <= kPageSize - 4)
    std::memcpy(page_mut(pa >> kPageShift) + off, &v, 4);
  else
    copy_in(pa, reinterpret_cast<const uint8_t*>(&v), 4);
}

void PhysicalMemory::write64(uint64_t pa, uint64_t v) {
  check(pa, 8);
  touch(pa, 8);
  const uint64_t off = pa & (kPageSize - 1);
  if (off <= kPageSize - 8)
    std::memcpy(page_mut(pa >> kPageShift) + off, &v, 8);
  else
    copy_in(pa, reinterpret_cast<const uint8_t*>(&v), 8);
}

void PhysicalMemory::write_block(uint64_t pa, const void* data, uint64_t len) {
  check(pa, len);
  if (len == 0) return;
  touch(pa, len);
  copy_in(pa, static_cast<const uint8_t*>(data), len);
}

void PhysicalMemory::read_block(uint64_t pa, void* data, uint64_t len) const {
  check(pa, len);
  copy_out(pa, static_cast<uint8_t*>(data), len);
}

void PhysicalMemory::fill(uint64_t pa, uint8_t value, uint64_t len) {
  check(pa, len);
  if (len == 0) return;
  touch(pa, len);
  while (len > 0) {
    const uint64_t off = pa & (kPageSize - 1);
    const uint64_t chunk = std::min<uint64_t>(len, kPageSize - off);
    const uint64_t p = pa >> kPageShift;
    // Zero-filling a page that already reads as zero needs no overlay — the
    // generation bump above keeps the invalidation contract regardless.
    if (!(value == 0 && read_ptr_[p] == nullptr))
      std::memset(page_mut(p) + off, value, chunk);
    pa += chunk;
    len -= chunk;
  }
}

std::shared_ptr<const PageStore> PhysicalMemory::snapshot() const {
  auto store = std::make_shared<PageStore>();
  store->size_bytes = size_;
  // A page with a read view has been written, so it has a nonzero
  // generation: walking the generations visits every page with content.
  for (uint64_t p = 0; p < page_count(); ++p) {
    if (page_gen_[p] == 0) continue;  // never written: the zero page
    PageStore::Page& page = store->pages.emplace_back();
    page.index = p;
    page.generation = page_gen_[p];
    const uint8_t* src = read_ptr_[p];
    if (src == nullptr) continue;
    const uint8_t* end = src + page_span(p, size_);
    // Pages written back to all-zero stay empty so forks keep sharing the
    // implicit zero page.
    if (std::any_of(src, end, [](uint8_t b) { return b != 0; }))
      page.bytes.assign(src, end);
  }
  return store;
}

void PhysicalMemory::adopt(std::shared_ptr<const PageStore> store) {
  if (!store) fail("physical memory: adopt of a null page store");
  if (store->size_bytes != size_)
    fail("physical memory: page store size mismatch");
  store_ = std::move(store);
  const uint64_t n = page_count();
  if (cow_count_ != 0) {
    overlay_.clear();
    overlay_.resize(n);
    cow_count_ = 0;
  }
  read_ptr_.assign(n, nullptr);
  page_gen_.assign(n, 0);
  for (const PageStore::Page& page : store_->pages) {
    page_gen_[page.index] = page.generation;
    if (!page.bytes.empty()) read_ptr_[page.index] = page.bytes.data();
  }
}

}  // namespace camo::mem
