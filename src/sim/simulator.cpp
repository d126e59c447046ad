#include "sim/simulator.hpp"

#include <utility>

#include "common/assert.hpp"

namespace fastcons {
namespace {

// Per-thread running total across all Simulator instances; the harness
// samples it around each trial (trials never share a thread mid-run).
thread_local std::uint64_t t_events_executed = 0;

}  // namespace

std::uint64_t Simulator::thread_events_executed() noexcept {
  return t_events_executed;
}

// --------------------------------------------------------------------------
// Slab

std::uint32_t Simulator::free_slot(SimTime when) {
  FASTCONS_EXPECTS(when >= now_);
  FASTCONS_EXPECTS(next_seq_ < (std::uint64_t{1} << kSeqBits));
  if (free_head_ == kNoFree) {
    FASTCONS_EXPECTS(slots_.size() < (std::size_t{1} << kSlotBits));
    free_head_ = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  return free_head_;
}

void Simulator::enqueue(std::uint32_t slot, SimTime when) {
  FASTCONS_EXPECTS(slot == free_head_);
  free_head_ = slots_[slot].next_free;
  const std::uint64_t seq = next_seq_++;
  // -0.0 passes the `when >= now_` check at time 0 but its sign bit would
  // sort it after every positive time.
  if (when == 0.0) when = 0.0;
  heap_push((static_cast<Key>(std::bit_cast<std::uint64_t>(when)) << 64) |
            (seq << kSlotBits) | slot);
}

// --------------------------------------------------------------------------
// Flat 4-ary min-heap of keys

void Simulator::heap_push(Key key) {
  if (heap_.size() < heap_size_ + 4) heap_.resize(heap_size_ + 4, kPadKey);
  // Hole insertion: walk the hole up, one store per level instead of a swap.
  std::size_t i = heap_size_++;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!(key < heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

void Simulator::heap_pop_min() noexcept {
  const std::size_t n = --heap_size_;
  const Key moved = heap_[n];
  heap_[n] = kPadKey;
  if (n == 0) return;
  // Sift the hole down, then drop `moved` in. Padding keys stand in for
  // missing children, so each level compares exactly four. Which child is
  // least is data-dependent, so the tournament selects pointers rather
  // than branching on it: in the GCC 12 Release build `objdump -d` shows
  // the pair picks as address arithmetic and the final pick as a `cmov`,
  // leaving the loop's two exits as its only conditional jumps. (Index
  // forms — `child[3] < child[2] ? 3 : 2`, or `2 + (child[3] < child[2])`
  // — compile to a data-dependent `jb` there; how often that jump
  // mispredicted was not measured.)
  Key* const heap = heap_.data();
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const Key* const child = heap + first;
    const Key* const pair_a = child + (child[1] < child[0]);
    const Key* const pair_b = child + 2 + (child[3] < child[2]);
    const Key* const least = *pair_b < *pair_a ? pair_b : pair_a;
    const Key best = *least;
    if (!(best < moved)) break;
    heap[i] = best;
    i = static_cast<std::size_t>(least - heap);
  }
  heap[i] = moved;
}

// --------------------------------------------------------------------------
// Public interface

bool Simulator::step() {
  if (heap_size_ == 0) return false;
  const Key top = heap_[0];
  heap_pop_min();
  const std::uint32_t slot = key_slot(top);
  // Move the action out and free the slot before invoking: the action may
  // schedule an event into this slot.
  Slot& s = slots_[slot];
  EventFn action = std::move(s.action);
  s.next_free = free_head_;
  free_head_ = slot;
  now_ = key_time(top);
  ++executed_;
  ++t_events_executed;
  action();
  return true;
}

std::uint64_t Simulator::run() {
  std::uint64_t executed = 0;
  while (step()) ++executed;
  return executed;
}

void Simulator::reset() noexcept {
  heap_.clear();
  heap_size_ = 0;
  // Rebuild the free list over every retained slot, releasing pending
  // closures. Walking backwards leaves slot 0 at the head, matching the
  // order a fresh slab hands slots out in.
  free_head_ = kNoFree;
  for (std::size_t i = slots_.size(); i-- > 0;) {
    slots_[i].action.reset();
    slots_[i].next_free = free_head_;
    free_head_ = static_cast<std::uint32_t>(i);
  }
  now_ = 0.0;
  next_seq_ = 0;
  executed_ = 0;
}

std::uint64_t Simulator::run_until(SimTime deadline) {
  FASTCONS_EXPECTS(deadline >= now_);
  std::uint64_t executed = 0;
  while (heap_size_ != 0 && key_time(heap_[0]) <= deadline) {
    step();
    ++executed;
  }
  if (now_ < deadline) now_ = deadline;
  return executed;
}

}  // namespace fastcons
