#include "alloc/pool_alloc.hpp"

#include <algorithm>
#include <new>

#include "util/assert.hpp"

namespace pathcopy::alloc {

PoolBackend::~PoolBackend() = default;

void* PoolBackend::allocate(std::size_t bytes, std::size_t align) {
  if (bytes > kMaxPooled || align > alignof(std::max_align_t)) {
    stats_.on_alloc(bytes);
    return ::operator new(bytes, std::align_val_t{align});
  }
  const std::size_t cls = class_of(bytes);
  void* p = nullptr;
  pop_batch(cls, &p, 1);
  stats_.on_alloc(class_bytes(cls));
  return p;
}

void PoolBackend::deallocate(void* p, std::size_t bytes, std::size_t align) noexcept {
  if (bytes > kMaxPooled || align > alignof(std::max_align_t)) {
    stats_.on_free(bytes);
    ::operator delete(p, std::align_val_t{align});
    return;
  }
  const std::size_t cls = class_of(bytes);
  stats_.on_free(class_bytes(cls));
  push_batch(cls, &p, 1);
}

void PoolBackend::free_batch(void* const* items, std::size_t n, std::size_t bytes,
                             std::size_t align) noexcept {
  if (n == 0) return;
  if (bytes > kMaxPooled || align > alignof(std::max_align_t)) {
    for (std::size_t i = 0; i < n; ++i) {
      stats_.on_free(bytes);
      ::operator delete(items[i], std::align_val_t{align});
    }
    return;
  }
  const std::size_t cls = class_of(bytes);
  stats_.on_free_n(n, class_bytes(cls) * n);
  push_batch(cls, items, n);
}

std::size_t PoolBackend::pop_batch(std::size_t size_class, void** out, std::size_t n) {
  PC_DASSERT(size_class < kClasses, "size class out of range");
  std::lock_guard lock(mu_);
  lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
  std::vector<void*>& stack = free_[size_class];
  const std::size_t got = std::min(n, stack.size());
  if (got < n) {
    // Carve before popping, so a throw leaves the stack untouched.
    carve_locked(size_class, out + got, n - got);
  }
  std::copy(stack.end() - static_cast<std::ptrdiff_t>(got), stack.end(), out);
  stack.resize(stack.size() - got);
  return n;
}

void PoolBackend::push_batch(std::size_t size_class, void* const* items,
                             std::size_t n) noexcept {
  PC_DASSERT(size_class < kClasses, "size class out of range");
  std::lock_guard lock(mu_);
  lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
  std::vector<void*>& stack = free_[size_class];
  // Capacity covers every carved block (carve_locked reserves it), so the
  // insert below never reallocates; running past it means a double free.
  PC_ASSERT(stack.size() + n <= stack.capacity(),
            "more blocks freed than were carved for this size class");
  for (std::size_t i = 0; i < n; ++i) check_class_locked(items[i], size_class);
  stack.insert(stack.end(), items, items + n);
}

std::size_t PoolBackend::free_blocks(std::size_t size_class) {
  std::lock_guard lock(mu_);
  return free_[size_class].size();
}

std::size_t PoolBackend::carved_blocks(std::size_t size_class) {
  std::lock_guard lock(mu_);
  return carved_[size_class];
}

void PoolBackend::check_class_locked(const void* p, std::size_t size_class) noexcept {
#ifndef NDEBUG
  const auto it = carved_class_.find(p);
  PC_DASSERT(it != carved_class_.end(), "freed pointer was never carved from this pool");
  PC_DASSERT(it->second == size_class, "pointer freed with a different size class than it was allocated with");
#else
  (void)p;
  (void)size_class;
#endif
}

void PoolBackend::carve_locked(std::size_t size_class, void** out, std::size_t n) {
  std::vector<void*>& stack = free_[size_class];
  const std::size_t need = carved_[size_class] + n;
  if (need > stack.capacity()) {
    stack.reserve(std::max(need, stack.capacity() + stack.capacity() / 2));
  }
  const std::size_t sz = class_bytes(size_class);
  std::size_t done = 0;
  try {
    for (; done < n; ++done) {
      if (static_cast<std::size_t>(end_ - bump_) < sz) {
        slabs_.push_back(std::make_unique<char[]>(kSlabBytes));
        bump_ = slabs_.back().get();
        end_ = bump_ + kSlabBytes;
      }
#ifndef NDEBUG
      carved_class_.emplace(bump_, static_cast<std::uint32_t>(size_class));
#endif
      out[done] = bump_;
      bump_ += sz;
      ++carved_[size_class];
    }
  } catch (...) {
    stack.insert(stack.end(), out, out + done);
    throw;
  }
}

}  // namespace pathcopy::alloc
