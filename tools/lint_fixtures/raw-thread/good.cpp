// wagg-lint-fixture: raw-thread expect=0
// Negative cases: work split through util::parallel_for, core counts and
// this_thread calls, a justified allow, and comment/string mentions.
#include <thread>

#include "util/parallel.h"

namespace wagg::sinr {

void build_rows(double* rows, std::size_t k) {
  util::parallel_for(k, 8, [&](std::size_t a) { rows[a] = 0.0; });
}

unsigned cores() { return std::thread::hardware_concurrency(); }

void back_off() { std::this_thread::yield(); }

void watchdog() {
  // wagg-lint: allow(raw-thread) a test-only watchdog, joined before exit
  std::thread guard([] {});
  guard.join();
}

// std::thread in a comment is inert; so is "std::async(...)" in a string:
inline const char* kDoc = "never start a std::thread here";
struct async_result {};
int asynchronous = 0;

}  // namespace wagg::sinr
