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

TimerHandle Simulator::enqueue(std::uint32_t slot, SimTime when) {
  FASTCONS_EXPECTS(slot == free_head_);
  Slot& s = slots_[slot];
  free_head_ = s.next_free;
  ++live_;
  const std::uint64_t seq = next_seq_++;
  s.pending_seq = seq;
  // -0.0 passes the `when >= now_` check at time 0 but its sign bit would
  // sort it after every positive time.
  if (when == 0.0) when = 0.0;
  heap_push((static_cast<Key>(std::bit_cast<std::uint64_t>(when)) << 64) |
            (seq << kSlotBits) | slot);
  return TimerHandle{slot, s.generation};
}

void Simulator::release_slot(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  s.action.reset();
  s.pending_seq = kNotPending;  // kills the heap entry
  ++s.generation;               // kills outstanding handles
  s.next_free = free_head_;
  free_head_ = slot;
  --live_;
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
  // missing children, so each level compares exactly four, and the
  // tournament below compiles to conditional moves: which child is least
  // is data-dependent and would mispredict as a branch.
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const Key* child = &heap_[first];
    const std::size_t a = child[1] < child[0] ? 1 : 0;
    const std::size_t b = child[3] < child[2] ? 3 : 2;
    const std::size_t least = child[b] < child[a] ? b : a;
    const Key best = child[least];
    if (!(best < moved)) break;
    heap_[i] = best;
    i = first + least;
  }
  heap_[i] = moved;
}

void Simulator::drop_dead_top() noexcept {
  while (heap_size_ != 0 && !entry_live(heap_[0])) heap_pop_min();
}

// --------------------------------------------------------------------------
// Public interface

TimerHandle Simulator::schedule_at(SimTime when, EventFn&& action) {
  FASTCONS_EXPECTS(static_cast<bool>(action));
  const std::uint32_t slot = free_slot(when);
  slots_[slot].action = std::move(action);
  return enqueue(slot, when);
}

bool Simulator::cancel(TimerHandle handle) noexcept {
  if (!handle.valid()) return false;
  const std::uint32_t slot = handle.slot();
  if (slot >= slots_.size()) return false;
  if (slots_[slot].generation != handle.generation()) return false;
  release_slot(slot);  // the heap entry dies with the pending seq
  return true;
}

bool Simulator::step() {
  drop_dead_top();
  if (heap_size_ == 0) return false;
  const Key top = heap_[0];
  heap_pop_min();
  const std::uint32_t slot = key_slot(top);
  // Move the action out and release the slot before invoking: the action
  // may schedule (reusing this slot) or cancel other events.
  EventFn action = std::move(slots_[slot].action);
  release_slot(slot);
  now_ = key_time(top);
  ++executed_;
  ++t_events_executed;
  action();
  return true;
}

std::uint64_t Simulator::run() {
  stop_requested_ = false;
  std::uint64_t executed = 0;
  while (!stop_requested_ && step()) ++executed;
  return executed;
}

void Simulator::reset() noexcept {
  heap_.clear();
  heap_size_ = 0;
  // Rebuild the free list over every retained slot, releasing pending
  // closures and invalidating outstanding handles via the generation bump.
  // Walking backwards leaves slot 0 at the head, matching the order a
  // fresh slab hands slots out in.
  free_head_ = kNoFree;
  for (std::size_t i = slots_.size(); i-- > 0;) {
    Slot& slot = slots_[i];
    slot.action.reset();
    slot.pending_seq = kNotPending;
    ++slot.generation;
    slot.next_free = free_head_;
    free_head_ = static_cast<std::uint32_t>(i);
  }
  live_ = 0;
  now_ = 0.0;
  next_seq_ = 0;
  executed_ = 0;
  stop_requested_ = false;
}

std::uint64_t Simulator::run_until(SimTime deadline) {
  FASTCONS_EXPECTS(deadline >= now_);
  stop_requested_ = false;
  std::uint64_t executed = 0;
  while (!stop_requested_) {
    drop_dead_top();  // make the peek below see a live event
    if (heap_size_ == 0 || key_time(heap_[0]) > deadline) break;
    step();
    ++executed;
  }
  if (now_ < deadline) now_ = deadline;
  return executed;
}

}  // namespace fastcons
