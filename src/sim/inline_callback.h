// Move-only type-erased callables with inline storage, sized for the event
// queue's and the packet path's hot closures.
#ifndef SRC_SIM_INLINE_CALLBACK_H_
#define SRC_SIM_INLINE_CALLBACK_H_

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace taichi::sim {

// The closure type behind every scheduled event and every hot sink. Unlike
// std::function it is move-only (so captures can own resources) and it never
// allocates: the capture lives in an inline buffer sized for the simulator's
// real captures — `this` plus a packet-pool handle plus a couple of ids — so
// the schedule → fire cycle and the per-burst sink dispatch never touch the
// allocator. libstdc++'s std::function spills to the heap past 16 bytes,
// which put one malloc/free pair on the critical path of nearly every
// simulated IRQ, poll tick, IPI and context switch.
//
// The buffer is the only storage: a capture that does not fit it does not
// compile (the converting constructor is disabled, so
// std::is_constructible_v reports false). Nothing needs more room, because
// a packet in flight waits in its node's sim::PacketPool and a closure
// carries its 4-byte handle, never the packet itself.
//
// Storage layout: two function pointers (invoke, manage) plus the buffer.
// Trivially-copyable captures — the overwhelmingly common case: lambdas over
// pointers, ids and PODs — set manage == nullptr, making moves a memcpy and
// destruction a no-op, with no indirect call. Non-trivial captures get a
// manage thunk that move-constructs + destroys.
template <typename Sig>
class InlineFunction;

template <typename R, typename... Args>
class InlineFunction<R(Args...)> {
 public:
  // Large enough for `this` + a 32-bit packet handle + a queue id + a
  // timestamp plus slack — the biggest capture on the per-packet and
  // per-event paths. Tests assert the hot-path captures fit; bump
  // deliberately if a new capture outgrows it.
  static constexpr size_t kInlineBytes = 48;

  // Whether a capture of type D can be stored; nothing else converts.
  template <typename D>
  static constexpr bool FitsInline() {
    return sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT: mirror std::function.

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFunction> &&
                                        std::is_invocable_r_v<R, D&, Args...> &&
                                        FitsInline<D>()>>
  InlineFunction(F&& f) {  // NOLINT: implicit, lambdas convert at call sites.
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    invoke_ = [](void* p, Args... args) -> R {
      return (*static_cast<D*>(p))(std::forward<Args>(args)...);
    };
    if constexpr (!TriviallyManaged<D>()) {
      manage_ = &InlineManage<D>;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { MoveFrom(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) noexcept {
    Reset();
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { Reset(); }

  R operator()(Args... args) {
    return invoke_(buf_, std::forward<Args>(args)...);
  }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

 private:
  using InvokeFn = R (*)(void*, Args...);
  // dst == nullptr: destroy src. Else: move-construct dst from src and
  // destroy src (one indirect call covers both move and destroy).
  using ManageFn = void (*)(void* dst, void* src);

  template <typename D>
  static constexpr bool TriviallyManaged() {
    return std::is_trivially_copyable_v<D> && std::is_trivially_destructible_v<D>;
  }

  template <typename D>
  static void InlineManage(void* dst, void* src) {
    D* s = static_cast<D*>(src);
    if (dst != nullptr) {
      ::new (dst) D(std::move(*s));
    }
    s->~D();
  }

  void MoveFrom(InlineFunction& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    if (invoke_ != nullptr) {
      if (manage_ == nullptr) {
        // Trivial captures move as a fixed-size copy of the whole buffer;
        // the bytes past the capture are indeterminate but never read
        // through invoke_. GCC flags the dead tail bytes.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
        std::memcpy(buf_, other.buf_, kInlineBytes);
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
      } else {
        manage_(buf_, other.buf_);
      }
    }
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  void Reset() noexcept {
    if (manage_ != nullptr) {
      manage_(nullptr, buf_);
    }
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  InvokeFn invoke_ = nullptr;
  ManageFn manage_ = nullptr;
  alignas(std::max_align_t) std::byte buf_[kInlineBytes];
};

// The event queue's closure type. Every scheduled event is one of these.
using InlineCallback = InlineFunction<void()>;

// A non-owning view of a callable: two words, trivially copyable, nothing to
// allocate or destroy. This is the right parameter type for synchronous
// fan-out APIs (ThreadPool::ParallelFor and friends) where the callable
// outlives the call by construction — the std::function it replaces put a
// type-erasure allocation + atomic refcount churn on every epoch step. The
// referenced callable must stay alive for the duration of every invocation;
// do not store a FunctionRef.
template <typename Sig>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  FunctionRef() = default;

  template <typename F, typename D = std::remove_reference_t<F>,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, FunctionRef> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  FunctionRef(F&& f) noexcept  // NOLINT: implicit, lambdas convert at call sites.
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        invoke_([](void* obj, Args... args) -> R {
          return (*static_cast<D*>(obj))(std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return invoke_(obj_, std::forward<Args>(args)...);
  }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

 private:
  void* obj_ = nullptr;
  R (*invoke_)(void*, Args...) = nullptr;
};

}  // namespace taichi::sim

#endif  // SRC_SIM_INLINE_CALLBACK_H_
