// wagg-lint-fixture: raw-thread expect=4
// Threads started outside the two pools (this fixture lints as src/bad.cpp):
// each spelling is flagged, so no thread escapes the TSan-covered pools.
#include <future>
#include <thread>
#include <vector>

namespace wagg::dynamic {

void repair_classes_in_parallel(std::vector<int>& classes) {
  std::vector<std::thread> workers;        // finding 1
  for (int& c : classes) {
    workers.emplace_back([&c] { ++c; });
  }
  for (auto& w : workers) w.join();
  std::jthread audit([] {});               // finding 2
  auto verdict = std::async([] { return 1; });  // finding 3
  (void)verdict.get();
  std::thread detached([] {});             // finding 4
  detached.detach();
}

}  // namespace wagg::dynamic
