// Allocation-free storage for the event loop's callables.
//
//   * InlineFunction — a move-only type-erased callable whose capture lives
//     in a fixed inline buffer.  A capture that does not fit is a compile
//     error, never a heap fallback: closures carry a context pointer plus
//     the few scalars their event needs.
//   * Slab — fixed-size chunks of reusable slots.  A slot's address never
//     changes (the slab grows by adding a chunk, never by copying itself),
//     and a freed slot is handed out again before any fresh one.
//
// The simulator keeps every pending event's action in a Slab<Action>; the
// reliable transport keeps each in-flight message's callables in one too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace aspen::sim {

/// Bytes of inline capture storage in a simulator action.
inline constexpr std::size_t kInlineCapture = 64;

template <typename Signature, std::size_t Capacity = kInlineCapture>
class InlineFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  InlineFunction() noexcept = default;

  /// Implicit, so a lambda passes wherever a callable is taken; the
  /// constraint keeps the move constructor in charge of InlineFunctions.
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InlineFunction> &&
             std::is_invocable_r_v<R, std::decay_t<F>&, Args...>)
  // NOLINTNEXTLINE(google-explicit-constructor,bugprone-forwarding-reference-overload)
  InlineFunction(F&& f) {
    emplace(std::forward<F>(f));
  }

  InlineFunction(InlineFunction&& other) noexcept { take(other); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;
  ~InlineFunction() { reset(); }

  /// Replaces the held callable with `f`, constructed in place.
  template <typename F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= Capacity,
                  "capture too large for an inline simulator callable: "
                  "capture a context pointer and the event's scalars");
    static_assert(alignof(Fn) <= alignof(std::uint64_t),
                  "over-aligned capture in an inline simulator callable");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "simulator callables must be nothrow-movable");
    reset();
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    ops_ = &kOps<Fn>;
  }

  /// Destroys the held callable (and everything it captured).
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  R operator()(Args... args) {
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    void (*relocate)(void* to, void* from) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  static constexpr Ops kOps{
      [](void* self, Args&&... args) -> R {
        return (*static_cast<Fn*>(self))(std::forward<Args>(args)...);
      },
      [](void* to, void* from) noexcept {
        Fn* source = static_cast<Fn*>(from);
        ::new (to) Fn(std::move(*source));
        source->~Fn();
      },
      [](void* self) noexcept { static_cast<Fn*>(self)->~Fn(); }};

  void take(InlineFunction& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(storage_, other.storage_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  alignas(std::uint64_t) unsigned char storage_[Capacity];
  const Ops* ops_ = nullptr;
};

/// A pending event's action.
using Action = InlineFunction<void()>;

/// Chunked pool of reusable `T` slots addressed by a dense index.
template <typename T>
class Slab {
 public:
  static constexpr std::uint32_t kChunkBits = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;

  /// The slot the next commit() hands out, growing the slab by one chunk
  /// when every slot is taken.  Fill it, then commit(); a fill that throws
  /// leaves the slab unchanged.
  T& vacant() {
    if (free_.empty() && fresh_ == capacity()) {
      chunks_.push_back(std::make_unique<T[]>(kChunkSize));
    }
    return (*this)[free_.empty() ? fresh_ : free_.back()];
  }

  /// Marks the vacant() slot taken and returns its index.
  std::uint32_t commit() {
    ++live_;
    if (free_.empty()) return fresh_++;
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }

  /// Returns `slot` to the pool; its contents must already be empty.
  void release(std::uint32_t slot) {
    --live_;
    free_.push_back(slot);
  }

  T& operator[](std::uint32_t slot) {
    return chunks_[slot >> kChunkBits][slot & (kChunkSize - 1)];
  }

  [[nodiscard]] std::size_t live() const { return live_; }
  [[nodiscard]] std::uint32_t capacity() const {
    return static_cast<std::uint32_t>(chunks_.size()) * kChunkSize;
  }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<std::uint32_t> free_;  ///< released slots, reused LIFO
  std::uint32_t fresh_ = 0;          ///< slots at and past it never used
  std::size_t live_ = 0;
};

}  // namespace aspen::sim
