// Minimal C++20 coroutine task used for all multi-step asynchronous logic
// in the simulation (filesystem block walks, NFS daemon loops, iSCSI
// exchanges). Tasks are lazy; awaiting one starts it with symmetric
// transfer. `detach()` launches a fire-and-forget root task that owns
// itself until completion (the idiom for daemon loops driven purely by
// event-loop callbacks).
//
// The simulation is single-threaded, so no atomics are needed anywhere in
// the continuation hand-off.
#pragma once

#include <coroutine>
#include <exception>
#include <functional>
#include <optional>
#include <type_traits>
#include <unordered_set>
#include <utility>

namespace ncache {

template <typename T>
class Task;

/// Owns detached root coroutines that are still suspended at teardown.
///
/// A detached task normally destroys its own frame at final_suspend, but a
/// daemon loop or in-flight exchange parked on an event that will never
/// fire (the testbed is being torn down) would otherwise leak its frame —
/// and everything the frame holds: sessions, buffers, child task frames.
/// Destroying the registered root frame cascades, since frame locals own
/// any child tasks. Completed tasks deregister themselves, so only frames
/// genuinely stuck at teardown are reaped.
class TaskReaper {
 public:
  TaskReaper() = default;
  TaskReaper(const TaskReaper&) = delete;
  TaskReaper& operator=(const TaskReaper&) = delete;
  ~TaskReaper() { reap(); }

  /// Destroys every registered root frame still suspended.
  void reap() noexcept {
    while (!roots_.empty()) {
      auto it = roots_.begin();
      void* addr = *it;
      roots_.erase(it);
      std::coroutine_handle<>::from_address(addr).destroy();
    }
  }

  std::size_t pending() const noexcept { return roots_.size(); }

  // Registration is managed by Task::detach and the final awaiter.
  void add(std::coroutine_handle<> h) { roots_.insert(h.address()); }
  void remove(std::coroutine_handle<> h) noexcept { roots_.erase(h.address()); }

 private:
  std::unordered_set<void*> roots_;
};

namespace detail {

struct PromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr error;
  TaskReaper* reaper = nullptr;
  bool detached = false;

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }

    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      auto& p = h.promise();
      if (p.detached) {
        // Root task: nobody awaits it. Surface swallowed exceptions hard —
        // a silently-dead daemon loop is the worst failure mode in a sim.
        if (p.error) std::rethrow_exception(p.error);
        if (p.reaper) p.reaper->remove(h);
        h.destroy();
        return std::noop_coroutine();
      }
      if (p.continuation) return p.continuation;
      return std::noop_coroutine();
    }

    void await_resume() noexcept {}
  };

  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { error = std::current_exception(); }
};

}  // namespace detail

/// Lazily-started coroutine returning T. Move-only; owns the frame unless
/// detached.
template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(T v) { value.emplace(std::move(v)); }
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      handle_ = std::exchange(o.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const noexcept { return bool(handle_); }
  bool done() const noexcept { return handle_ && handle_.done(); }

  /// Launches the task as a self-owning root coroutine.
  void detach() && {
    auto h = std::exchange(handle_, {});
    h.promise().detached = true;
    h.resume();
  }

  /// Like detach(), but registers the root frame with `reaper` so that a
  /// frame still suspended when the reaper dies is destroyed, not leaked.
  void detach(TaskReaper& reaper) && {
    auto h = std::exchange(handle_, {});
    h.promise().detached = true;
    h.promise().reaper = &reaper;
    reaper.add(h);
    h.resume();
  }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;
      }
      T await_resume() {
        if (h.promise().error) std::rethrow_exception(h.promise().error);
        return std::move(*h.promise().value);
      }
    };
    return Awaiter{handle_};
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() {}
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      handle_ = std::exchange(o.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const noexcept { return bool(handle_); }
  bool done() const noexcept { return handle_ && handle_.done(); }

  void detach() && {
    auto h = std::exchange(handle_, {});
    h.promise().detached = true;
    h.resume();
  }

  /// Like detach(), but registers the root frame with `reaper` so that a
  /// frame still suspended when the reaper dies is destroyed, not leaked.
  void detach(TaskReaper& reaper) && {
    auto h = std::exchange(handle_, {});
    h.promise().detached = true;
    h.promise().reaper = &reaper;
    reaper.add(h);
    h.resume();
  }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;
      }
      void await_resume() {
        if (h.promise().error) std::rethrow_exception(h.promise().error);
      }
    };
    return Awaiter{handle_};
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

/// An awaitable that is either a value computed without suspending or a
/// Task that computes it. Cache-hit paths return the value, so a hit costs
/// no coroutine frame and awaiting it never suspends (await_ready() is
/// true); only a miss creates — and awaits — a frame. Callers write one
/// `co_await f(...)` either way, and must await it at once: the ready
/// path's side effects (hit counts, LRU touches) happen when f runs, the
/// Task's when it is awaited.
template <typename T>
class [[nodiscard]] MaybeTask {
 public:
  MaybeTask(T value) : value_(std::move(value)) {}
  MaybeTask(Task<T> task) : task_(std::move(task)) {}
  MaybeTask(MaybeTask&&) noexcept = default;
  MaybeTask& operator=(MaybeTask&&) noexcept = default;
  /// Idempotent, like Task's: GCC 12 can destroy a co_await temporary
  /// twice (see AwaitCallback).
  ~MaybeTask() { value_.reset(); }

  bool await_ready() const noexcept { return value_.has_value(); }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
    return std::move(task_).operator co_await().await_suspend(cont);
  }
  T await_resume() {
    if (value_) return std::move(*value_);
    return std::move(task_).operator co_await().await_resume();
  }

 private:
  std::optional<T> value_;
  Task<T> task_;
};

/// MaybeTask<void>: done already, or a Task still to run.
template <>
class [[nodiscard]] MaybeTask<void> {
 public:
  MaybeTask() = default;
  MaybeTask(Task<void> task) : task_(std::move(task)) {}

  bool await_ready() const noexcept { return !task_.valid(); }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
    return std::move(task_).operator co_await().await_suspend(cont);
  }
  void await_resume() {
    if (task_.valid()) std::move(task_).operator co_await().await_resume();
  }

 private:
  Task<void> task_;
};

namespace detail {
template <typename T, typename F>
Task<std::invoke_result_t<F&, T>> then_task(MaybeTask<T> m, F f) {
  co_return f(co_await m);
}
}  // namespace detail

/// f applied to what `m` yields: at once when `m` is ready, else by a Task
/// that awaits `m` first. Chains a cheap step onto a resident-or-fetch
/// lookup without giving the hit a frame.
template <typename T, typename F>
MaybeTask<std::invoke_result_t<F&, T>> then(MaybeTask<T> m, F f) {
  if (m.await_ready()) return f(m.await_resume());
  return detail::then_task(std::move(m), std::move(f));
}

/// Adapts a callback-style async API into an awaitable:
///
///   AwaitCallback<T> awaiter([&](auto resolve) {
///     api.start(args, std::move(resolve));
///   });
///   T v = co_await awaiter;
///
/// IMPORTANT: always bind the AwaitCallback to a named local as above and
/// never `co_await AwaitCallback<T>(...)` directly. GCC 12 destroys
/// non-trivial temporaries inside a co_await full-expression twice when
/// the frame is torn down from final_suspend (detached root tasks), which
/// double-frees the starter's captured state. Named locals are destroyed
/// exactly once.
///
/// The starter MUST complete asynchronously (via the event loop); resolving
/// synchronously from inside the starter would resume before suspension
/// bookkeeping finishes and is rejected by an assert in debug builds.
template <typename T>
class AwaitCallback {
 public:
  using Resolve = std::function<void(T)>;

  explicit AwaitCallback(std::function<void(Resolve)> starter)
      : starter_(std::move(starter)) {}

  bool await_ready() const noexcept { return false; }

  void await_suspend(std::coroutine_handle<> h) {
    starter_([this, h](T v) {
      result_.emplace(std::move(v));
      h.resume();
    });
  }

  T await_resume() { return std::move(*result_); }

 private:
  std::function<void(Resolve)> starter_;
  std::optional<T> result_;
};

}  // namespace ncache
