#include "util/frame_pool.h"

namespace marea {

namespace detail {

void release_slab(FrameSlab* slab) {
  // Move the home reference out first: if the freelist is full (or the
  // pool core is somehow gone) the slab and the pool ref die together.
  std::shared_ptr<PoolCore> home = std::move(slab->home);
  std::unique_ptr<FrameSlab> owned(slab);
  if (!home) return;
  std::lock_guard<std::mutex> lock(home->mu);
  if (home->closed || home->free_list.size() >= home->max_free) return;
  // Bytes and length stay: the next checkout reshapes the buffer.
  home->free_list.push_back(std::move(owned));
}

}  // namespace detail

FramePool::FramePool(size_t slab_reserve, size_t max_free)
    : core_(std::make_shared<detail::PoolCore>()) {
  core_->slab_reserve = slab_reserve;
  core_->max_free = max_free;
}

FramePool::~FramePool() {
  std::vector<std::unique_ptr<detail::FrameSlab>> drained;
  {
    std::lock_guard<std::mutex> lock(core_->mu);
    core_->closed = true;
    drained.swap(core_->free_list);
  }
  // Slabs free outside the lock; outstanding frames keep the core alive
  // (shared_ptr) and see `closed` when they release.
}

detail::FrameSlab* FramePool::checkout() {
  core_->checkouts.fetch_add(1, std::memory_order_relaxed);
  std::unique_ptr<detail::FrameSlab> slab;
  {
    std::lock_guard<std::mutex> lock(core_->mu);
    if (!core_->free_list.empty()) {
      slab = std::move(core_->free_list.back());
      core_->free_list.pop_back();
    }
  }
  if (slab) {
    core_->pool_hits.fetch_add(1, std::memory_order_relaxed);
  } else {
    core_->slab_allocs.fetch_add(1, std::memory_order_relaxed);
    slab = std::make_unique<detail::FrameSlab>();
    slab->data.reserve(core_->slab_reserve);
  }
  slab->home = core_;
  return slab.release();
}

FrameLease FramePool::acquire(size_t size_hint) {
  detail::FrameSlab* slab = checkout();
  // Keep capacity, drop contents: a builder starts from an empty buffer,
  // so no stale bytes from a previous frame can leak into this one.
  slab->data.clear();
  if (size_hint > slab->data.capacity()) slab->data.reserve(size_hint);
  return FrameLease(slab);
}

FrameLease FramePool::acquire_recv(size_t len) {
  detail::FrameSlab* slab = checkout();
  // A reallocation need not carry the old bytes over.
  if (len > slab->data.capacity()) slab->data.clear();
  slab->data.resize(len);
  return FrameLease(slab);
}

FramePool::Stats FramePool::stats() const {
  Stats s;
  s.checkouts = core_->checkouts.load(std::memory_order_relaxed);
  s.pool_hits = core_->pool_hits.load(std::memory_order_relaxed);
  s.slab_allocs = core_->slab_allocs.load(std::memory_order_relaxed);
  return s;
}

}  // namespace marea
