#ifndef WAGG_UTIL_PARALLEL_H
#define WAGG_UTIL_PARALLEL_H

#include <cstddef>
#include <memory>
#include <type_traits>

namespace wagg::util {

namespace detail {

using IndexFn = void (*)(void* context, std::size_t index);

std::size_t parallel_for(std::size_t n, std::size_t grain, IndexFn fn,
                         void* context);

}  // namespace detail

/// Runs fn(i) exactly once for every i in [0, n), on the calling thread and
/// on whichever helpers of the process-wide pool are awake. The pool starts
/// on first use with hardware_concurrency() - 1 sleeping helper threads,
/// which run at idle priority: they only take cores no other thread wants.
/// Work is claimed in chunks of `grain` consecutive indices from one atomic
/// counter, and each chunk runs its indices in increasing order on one
/// thread.
///
/// The caller never waits for a helper to wake: it posts the call, wakes
/// the helpers and claims chunks itself, so with no helper free (all asleep,
/// or busy with other callers' work) it simply runs every index alone. It
/// then waits only for chunks a helper has already claimed. Concurrent and
/// nested calls follow the same rule, so no call can block another.
///
/// Helpers allocate nothing: whatever fn writes must be allocated by the
/// caller. If fn throws, the remaining indices still run, and the exception
/// of the lowest throwing index is rethrown once every index has finished.
///
/// Returns the number of indices that helpers ran (the rest ran on the
/// calling thread).
template <class Fn>
std::size_t parallel_for(std::size_t n, std::size_t grain, Fn&& fn) {
  using Callable = std::remove_reference_t<Fn>;
  return detail::parallel_for(
      n, grain,
      [](void* context, std::size_t index) {
        (*static_cast<Callable*>(context))(index);
      },
      const_cast<void*>(static_cast<const void*>(std::addressof(fn))));
}

/// Number of helper threads in the pool, starting it if needed.
[[nodiscard]] std::size_t parallel_helpers();

}  // namespace wagg::util

#endif  // WAGG_UTIL_PARALLEL_H
