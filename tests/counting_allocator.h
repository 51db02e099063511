// Counting global allocator for the allocation tests. Include it in exactly
// one translation unit of a test binary: it replaces the global operator
// new/delete of the whole binary.
//
// The plain and nothrow forms are replaced (std::stable_sort's temporary
// buffer comes from nothrow new, and AddressSanitizer checks that every
// delete matches its new); the sized deletes forward here per the standard.
// GCC flags free() on a pointer it watched come out of a new-expression — a
// false positive once the global operators are replaced with malloc/free.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<std::size_t> g_allocation_count{0};
}  // namespace

/// Calls of the global operator new so far.
std::size_t test_allocation_count() {
  return g_allocation_count.load(std::memory_order_relaxed);
}

void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
