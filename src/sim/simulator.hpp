// Deterministic discrete-event simulator — the substrate that replaces NS-2
// for this reproduction (DESIGN.md S1).
//
// Events are closures ordered by (time, insertion sequence); ties are broken
// by insertion order so runs are bit-for-bit reproducible.
//
// Layout: closures live in a slab with a free list. The priority queue is a
// flat 4-ary min-heap of 16-byte keys: one unsigned 128-bit integer holding
// the event time's bits (non-negative doubles order like their bit
// patterns) above `seq << 24 | slot`, so one integer comparison orders
// (time, seq). The heap is padded with maximal keys, so every node has four
// children to compare, and the sift picks the least of them by selecting
// pointers, which GCC compiles without a data-dependent branch (see
// heap_pop_min; docs/performance.md shows how to check the binary).
// Cancellation is O(1) and allocation-free: it frees the slot, and the
// orphaned heap entry is discarded when it reaches the top (its seq no
// longer matches the seq the slot is pending for). Handles carry (slot,
// generation), so a handle to a fired or cancelled event can never alias a
// later event that reuses the slot.
#ifndef FASTCONS_SIM_SIMULATOR_HPP
#define FASTCONS_SIM_SIMULATOR_HPP

#include <bit>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "sim/event_fn.hpp"

namespace fastcons {

/// Handle returned by schedule(); can cancel the event before it fires.
class TimerHandle {
 public:
  TimerHandle() = default;

  bool valid() const noexcept { return raw_ != 0; }

 private:
  friend class Simulator;
  TimerHandle(std::uint32_t slot, std::uint32_t generation) noexcept
      : raw_((static_cast<std::uint64_t>(generation) << 32) |
             (static_cast<std::uint64_t>(slot) + 1)) {}
  std::uint32_t slot() const noexcept {
    return static_cast<std::uint32_t>(raw_ & 0xffffffffu) - 1;
  }
  std::uint32_t generation() const noexcept {
    return static_cast<std::uint32_t>(raw_ >> 32);
  }
  std::uint64_t raw_ = 0;
};

/// Single-threaded event-driven simulator.
///
/// The time unit convention is set by the caller; all experiments in this
/// repository use 1.0 == one mean anti-entropy period (see common/types.hpp).
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Starts at 0.
  SimTime now() const noexcept { return now_; }

  /// Schedules `action` at absolute time `when`; `when` must not be in the
  /// past. Returns a cancellation handle.
  TimerHandle schedule_at(SimTime when, EventFn&& action);

  /// Same for any other callable: the closure is built once, in its slab
  /// slot, instead of being wrapped and then moved there.
  template <typename F, typename = std::enable_if_t<EventFn::wraps<F>>>
  TimerHandle schedule_at(SimTime when, F&& fn) {
    const std::uint32_t slot = free_slot(when);
    slots_[slot].action.emplace(std::forward<F>(fn));
    return enqueue(slot, when);
  }

  /// Schedules `action` `delay` from now. `delay` must be >= 0.
  TimerHandle schedule_in(SimTime delay, EventFn&& action) {
    FASTCONS_EXPECTS(delay >= 0.0);
    return schedule_at(now_ + delay, std::move(action));
  }

  template <typename F, typename = std::enable_if_t<EventFn::wraps<F>>>
  TimerHandle schedule_in(SimTime delay, F&& fn) {
    FASTCONS_EXPECTS(delay >= 0.0);
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Cancels a pending event. Safe to call on already-fired, cancelled, or
  /// default-constructed handles; returns whether the event was pending.
  bool cancel(TimerHandle handle) noexcept;

  /// Runs events until the queue drains or stop() is called. Returns the
  /// number of events executed.
  std::uint64_t run();

  /// Runs events with time <= `deadline`, then sets now() = deadline (if
  /// the queue drained earlier, time still advances to the deadline).
  std::uint64_t run_until(SimTime deadline);

  /// Executes at most one event. Returns false when the queue is empty.
  bool step();

  /// Requests run()/run_until() to return after the current event.
  void stop() noexcept { stop_requested_ = true; }

  /// Returns the simulator to its freshly-constructed logical state —
  /// time 0, empty queue, zeroed counters — while retaining the slab and
  /// heap storage, so a pooled simulator schedules its next trial's events
  /// without touching the allocator. Every pending event is discarded
  /// (closure destructors run) and every slot generation is bumped, so
  /// TimerHandles obtained before the reset can never cancel an event
  /// scheduled after it.
  void reset() noexcept;

  std::size_t pending_events() const noexcept { return live_; }

  /// Events executed over this simulator's lifetime.
  std::uint64_t events_executed() const noexcept { return executed_; }

  /// Events executed by every Simulator on the calling thread. The harness
  /// samples this around each trial to report events/sec without threading
  /// a counter through every trial function.
  static std::uint64_t thread_events_executed() noexcept;

 private:
  // Heap key: time bits in the high 64 bits, `seq << 24 | slot` below.
  using Key = unsigned __int128;
  static constexpr int kSlotBits = 24;
  static constexpr int kSeqBits = 40;
  static constexpr std::uint32_t kNoFree = 0xffffffffu;
  static constexpr std::uint64_t kNotPending = ~std::uint64_t{0};
  // Pads the heap past its last entry; no real key is this large (its time
  // bits would be a NaN).
  static constexpr Key kPadKey = ~Key{0};

  struct Slot {
    EventFn action;
    // Seq of the heap entry this slot's event waits in, or kNotPending when
    // the slot is free; an entry whose seq differs is dead.
    std::uint64_t pending_seq = kNotPending;
    // Bumped whenever the slot is released (fire or cancel); handles
    // recording an older generation are dead.
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNoFree;
  };

  static SimTime key_time(Key key) noexcept {
    return std::bit_cast<SimTime>(static_cast<std::uint64_t>(key >> 64));
  }
  static std::uint64_t key_seq(Key key) noexcept {
    return static_cast<std::uint64_t>(key) >> kSlotBits;
  }
  static std::uint32_t key_slot(Key key) noexcept {
    return static_cast<std::uint32_t>(key) & ((1u << kSlotBits) - 1);
  }

  bool entry_live(Key key) const noexcept {
    return slots_[key_slot(key)].pending_seq == key_seq(key);
  }

  void heap_push(Key key);
  void heap_pop_min() noexcept;
  /// Discards cancelled entries at the top; afterwards the heap is empty or
  /// its top is live.
  void drop_dead_top() noexcept;

  /// Checks `when` and returns the slot the next event will take (the free
  /// list's head, growing the slab when it is empty). The slot stays on the
  /// free list until enqueue(), so a closure constructor that throws leaks
  /// nothing.
  std::uint32_t free_slot(SimTime when);
  /// Takes `slot` (holding the event's closure) off the free list and
  /// queues it at `when`.
  TimerHandle enqueue(std::uint32_t slot, SimTime when);
  void release_slot(std::uint32_t slot) noexcept;

  std::vector<Slot> slots_;
  // heap_[0, heap_size_) is the heap; at least three kPadKey entries follow.
  std::vector<Key> heap_;
  std::size_t heap_size_ = 0;
  std::uint32_t free_head_ = kNoFree;
  std::size_t live_ = 0;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  bool stop_requested_ = false;
};

}  // namespace fastcons

#endif  // FASTCONS_SIM_SIMULATOR_HPP
