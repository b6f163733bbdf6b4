#include "src/pcr/stack.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

// Recycled stacks carry whatever ASan shadow the previous fiber left behind: fibers abandoned
// mid-execution (the scheduler destroys suspended fibers at shutdown/reap) never run the
// epilogues that would unpoison their frames' redzones. Scrub the shadow on release so the
// next fiber starts on a clean stack.
#if defined(__SANITIZE_ADDRESS__)
#define PCR_ASAN_STACKS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PCR_ASAN_STACKS 1
#endif
#endif

#ifdef PCR_ASAN_STACKS
#include <sanitizer/asan_interface.h>
#endif

namespace pcr {

namespace {

size_t PageSize() {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

size_t RoundUpToPage(size_t bytes) {
  size_t page = PageSize();
  return (bytes + page - 1) / page * page;
}

}  // namespace

size_t FiberStack::UsableSize(size_t usable_bytes) {
  return RoundUpToPage(usable_bytes == 0 ? PageSize() : usable_bytes);
}

size_t FiberStack::ReservedSize(size_t usable_bytes) {
  return UsableSize(usable_bytes) + PageSize();
}

FiberStack FiberStack::TryCreate(size_t usable_bytes, std::string* error) {
  size_t page = PageSize();
  FiberStack stack;
  stack.usable_bytes_ = UsableSize(usable_bytes);
  stack.mapping_bytes_ = stack.usable_bytes_ + page;  // one guard page below the stack
  void* mapping = mmap(nullptr, stack.mapping_bytes_, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mapping == MAP_FAILED) {
    if (error != nullptr) {
      *error = "mmap of " + std::to_string(stack.mapping_bytes_) +
               "-byte fiber stack failed: " + std::strerror(errno);
    }
    return FiberStack();
  }
  if (mprotect(mapping, page, PROT_NONE) != 0) {
    if (error != nullptr) {
      *error = std::string("mprotect of fiber stack guard page failed: ") + std::strerror(errno);
    }
    munmap(mapping, stack.mapping_bytes_);
    return FiberStack();
  }
  stack.mapping_ = mapping;
  stack.usable_base_ = static_cast<char*>(mapping) + page;
  return stack;
}

FiberStack::FiberStack(size_t usable_bytes) {
  std::string error;
  *this = TryCreate(usable_bytes, &error);
  if (mapping_ == nullptr) {
    std::fprintf(stderr, "pcr: %s\n", error.c_str());
    std::abort();
  }
}

FiberStack::~FiberStack() { Release(); }

FiberStack::FiberStack(FiberStack&& other) noexcept
    : mapping_(std::exchange(other.mapping_, nullptr)),
      usable_base_(std::exchange(other.usable_base_, nullptr)),
      mapping_bytes_(std::exchange(other.mapping_bytes_, 0)),
      usable_bytes_(std::exchange(other.usable_bytes_, 0)) {}

FiberStack& FiberStack::operator=(FiberStack&& other) noexcept {
  if (this != &other) {
    Release();
    mapping_ = std::exchange(other.mapping_, nullptr);
    usable_base_ = std::exchange(other.usable_base_, nullptr);
    mapping_bytes_ = std::exchange(other.mapping_bytes_, 0);
    usable_bytes_ = std::exchange(other.usable_bytes_, 0);
  }
  return *this;
}

void FiberStack::Release() {
  if (mapping_ != nullptr) {
    munmap(mapping_, mapping_bytes_);
    mapping_ = nullptr;
  }
}

StackPool::StackPool(size_t max_pooled_bytes) : max_pooled_bytes_(max_pooled_bytes) {}

FiberStack StackPool::Acquire(size_t usable_bytes, bool* from_pool) {
  FiberStack stack;
  std::string error;
  if (!TryAcquire(usable_bytes, &stack, from_pool, &error)) {
    std::fprintf(stderr, "pcr: stack acquire failed: %s\n", error.c_str());
    std::abort();
  }
  return stack;
}

bool StackPool::HasCapacity(size_t usable_bytes) const {
  return max_live_bytes_ == 0 ||
         stats_.live_bytes + FiberStack::ReservedSize(usable_bytes) <= max_live_bytes_;
}

bool StackPool::TryAcquire(size_t usable_bytes, FiberStack* out, bool* from_pool,
                           std::string* error) {
  if (!HasCapacity(usable_bytes)) {
    if (error != nullptr) {
      *error = "stack pool at capacity: " + std::to_string(stats_.live_bytes) +
               " bytes live of " + std::to_string(max_live_bytes_) + " allowed";
    }
    return false;
  }
  ++stats_.acquires;
  size_t size_class = FiberStack::UsableSize(usable_bytes);
  auto it = free_.find(size_class);
  FiberStack stack;
  bool reused = it != free_.end() && !it->second.empty();
  if (reused) {
    stack = std::move(it->second.back());
    it->second.pop_back();
    ++stats_.pool_hits;
    stats_.pooled_bytes -= stack.reserved_bytes();
  } else {
    stack = FiberStack::TryCreate(size_class, error);
    if (stack.base() == nullptr) {
      --stats_.acquires;  // the failed attempt never produced a stack
      return false;
    }
  }
  if (from_pool != nullptr) {
    *from_pool = reused;
  }
  stats_.live_bytes += stack.reserved_bytes();
  if (stats_.live_bytes > stats_.peak_live_bytes) {
    stats_.peak_live_bytes = stats_.live_bytes;
  }
  *out = std::move(stack);
  return true;
}

void StackPool::Release(FiberStack stack) {
  if (stack.base() == nullptr) {
    return;
  }
  ++stats_.releases;
  stats_.live_bytes -= stack.reserved_bytes();
  if (stats_.pooled_bytes + stack.reserved_bytes() > max_pooled_bytes_) {
    ++stats_.drops;
    return;  // `stack` unmaps on scope exit
  }
#ifdef PCR_ASAN_STACKS
  __asan_unpoison_memory_region(stack.base(), stack.size());
#endif
  stats_.pooled_bytes += stack.reserved_bytes();
  if (stats_.pooled_bytes > stats_.peak_pooled_bytes) {
    stats_.peak_pooled_bytes = stats_.pooled_bytes;
  }
  free_[stack.size()].push_back(std::move(stack));
}

void StackPool::Clear() {
  free_.clear();
  stats_.pooled_bytes = 0;
}

size_t StackPool::pooled_stacks() const {
  size_t n = 0;
  for (const auto& [size_class, stacks] : free_) {
    n += stacks.size();
  }
  return n;
}

}  // namespace pcr
