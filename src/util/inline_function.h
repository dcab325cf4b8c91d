// InlineFunction: a type-erased callable stored inside the object itself.
//
// std::function heap-allocates any closure larger than its small-buffer (two
// pointers in libstdc++), so a continuation that captures `this` plus a
// couple of words costs a malloc/free pair per construction. InlineFunction
// keeps a fixed capture budget inline and rejects larger closures at compile
// time, which makes it safe to build on per-event hot paths. Closures must be
// trivially copyable (plain captures of pointers, integers and other
// InlineFunctions): copying an InlineFunction is then a byte copy and
// destroying one is a no-op. An empty one (default or nullptr) tests false.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace ndp {

template <typename Signature, size_t kCapacity = 3 * sizeof(void*)>
class InlineFunction;

template <typename R, typename... Args, size_t kCapacity>
class InlineFunction<R(Args...), kCapacity> {
 public:
  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction>>>
  InlineFunction(F f) {  // NOLINT(google-explicit-constructor): lambda sink
    static_assert(sizeof(F) <= kCapacity,
                  "closure captures exceed the inline capacity");
    static_assert(alignof(F) <= alignof(void*),
                  "closure is over-aligned for the inline buffer");
    static_assert(std::is_trivially_copyable_v<F> &&
                      std::is_trivially_destructible_v<F>,
                  "closure must capture plain values only");
    ::new (static_cast<void*>(storage_)) F(std::move(f));
    invoke_ = [](void* storage, Args... args) -> R {
      return (*std::launder(static_cast<F*>(storage)))(
          std::forward<Args>(args)...);
    };
  }

  explicit operator bool() const { return invoke_ != nullptr; }

  R operator()(Args... args) {
    return invoke_(storage_, std::forward<Args>(args)...);
  }

 private:
  alignas(void*) unsigned char storage_[kCapacity] = {};
  R (*invoke_)(void*, Args...) = nullptr;
};

}  // namespace ndp
