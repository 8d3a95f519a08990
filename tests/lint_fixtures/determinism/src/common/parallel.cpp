// Fixture: common/parallel owns the worker threads (raw-thread is exempt
// here), but every other token rule still applies.

#include <cstdlib>
#include <thread>
#include <vector>

void run_workers(unsigned n) {
  std::vector<std::thread> pool;  // fine: the layer that owns std::thread
  for (unsigned i = 0; i < n; ++i) pool.emplace_back([] {});
  for (auto& t : pool) t.join();
  srand(n);  // expect: libc-rng
}
