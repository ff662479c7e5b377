// A non-owning reference to a callable.
//
// For hot callbacks that must neither allocate (std::function may) nor turn
// the callee into a header template: the referenced callable must outlive
// the FunctionRef, which in practice means "pass a lambda as an argument".
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace graphner::util {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::decay_t<F>, FunctionRef> &&
                            std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f) noexcept  // implicit: binds a lambda at the call site
      : object_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* object, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(object))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const { return call_(object_, std::forward<Args>(args)...); }

 private:
  void* object_;
  R (*call_)(void*, Args...);
};

}  // namespace graphner::util
