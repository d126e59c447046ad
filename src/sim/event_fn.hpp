// EventFn: a move-only callable with small-buffer optimisation, sized for
// the simulator's event closures.
//
// std::function is the wrong tool for a discrete-event hot path twice over:
// it requires copyability (forcing every captured Message to be copyable
// even though events fire exactly once), and libstdc++'s inline buffer is
// 16 bytes, so a delivery closure capturing a Message always heap-allocates.
// EventFn accepts move-only captures and inlines anything up to
// kInlineBytes (chosen to fit the largest closure SimNetwork schedules:
// [this, from, to, msg] with a SessionPush payload); larger or
// potentially-throwing-on-move callables fall back to the heap.
#ifndef FASTCONS_SIM_EVENT_FN_HPP
#define FASTCONS_SIM_EVENT_FN_HPP

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace fastcons {

class EventFn {
 public:
  /// Inline capacity in bytes. Large enough for a simulated message
  /// delivery ([this, from, to, Message]) without a heap allocation.
  static constexpr std::size_t kInlineBytes = 120;

  EventFn() noexcept = default;

  /// True for the callables an EventFn can wrap (anything but an EventFn).
  template <typename F, typename D = std::decay_t<F>>
  static constexpr bool wraps =
      !std::is_same_v<D, EventFn> && std::is_invocable_r_v<void, D&>;

  template <typename F, typename = std::enable_if_t<wraps<F>>>
  EventFn(F&& fn) {  // NOLINT(google-explicit-constructor): function-like
    construct(std::forward<F>(fn));
  }

  EventFn(EventFn&& other) noexcept { move_from(other); }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  /// Invokes the wrapped callable. Precondition: engaged.
  void operator()() { vt_->invoke(storage_); }

  explicit operator bool() const noexcept { return vt_ != nullptr; }

  void reset() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(storage_);
      vt_ = nullptr;
    }
  }

  /// Replaces the held callable with `fn`, built directly in this object's
  /// storage: no temporary EventFn, so no relocation.
  template <typename F, typename = std::enable_if_t<wraps<F>>>
  void emplace(F&& fn) {
    reset();
    construct(std::forward<F>(fn));
  }

 private:
  struct VTable {
    void (*invoke)(void*);
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void*) noexcept;
  };

  // The slab the simulator keeps EventFns in grows by relocation, so inline
  // storage additionally requires a noexcept move.
  template <typename D>
  static constexpr bool fits_inline =
      sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  static D* inline_ptr(void* s) noexcept {
    return std::launder(reinterpret_cast<D*>(s));
  }
  template <typename D>
  static D*& heap_ptr(void* s) noexcept {
    return *std::launder(reinterpret_cast<D**>(s));
  }

  template <typename D>
  static constexpr VTable kInlineVt{
      [](void* s) { (*inline_ptr<D>(s))(); },
      [](void* from, void* to) noexcept {
        D* f = inline_ptr<D>(from);
        ::new (to) D(std::move(*f));
        f->~D();
      },
      [](void* s) noexcept { inline_ptr<D>(s)->~D(); },
  };

  template <typename D>
  static constexpr VTable kHeapVt{
      [](void* s) { (*heap_ptr<D>(s))(); },
      [](void* from, void* to) noexcept {
        ::new (to) D*(heap_ptr<D>(from));
      },
      [](void* s) noexcept { delete heap_ptr<D>(s); },
  };

  /// Precondition: disengaged.
  template <typename F>
  void construct(F&& fn) {
    using D = std::decay_t<F>;
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      vt_ = &kInlineVt<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(fn)));
      vt_ = &kHeapVt<D>;
    }
  }

  void move_from(EventFn& other) noexcept {
    if (other.vt_ != nullptr) {
      other.vt_->relocate(other.storage_, storage_);
      vt_ = other.vt_;
      other.vt_ = nullptr;
    }
  }

  const VTable* vt_ = nullptr;
  alignas(std::max_align_t) std::byte storage_[kInlineBytes];
};

}  // namespace fastcons

#endif  // FASTCONS_SIM_EVENT_FN_HPP
