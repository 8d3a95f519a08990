// Fixture: the whole-file token rules. Every construct that makes a run
// depend on something other than (config, seed) is flagged wherever it
// appears: in function bodies, class bodies, at namespace scope and in
// macro definitions. Comments and string literals are not code.

#include <chrono>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <future>
#include <random>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#define NOW() std::chrono::steady_clock::now()  // expect: wall-clock
#define ROLL() rand()                            // expect: libc-rng

struct TraceEvent {
  int id;
};

// A seeded stream whose methods happen to share libc's names (declared
// elsewhere): calls through it are not libc.
struct Rng;

static const auto kBoot = std::chrono::system_clock::now();  // expect: wall-clock

struct Kernel {
  void draw(Rng& rng, Rng* gen);
  void clocks();
  void containers();
  void threads();
  void emit(const TraceEvent& ev);
  std::chrono::steady_clock::time_point started_;  // expect: wall-clock
  std::unordered_map<int, int> by_id_;             // expect: unordered-container
  std::function<void(const TraceEvent&)> tracer_;
};

void Kernel::draw(Rng& rng, Rng* gen) {
  int a = rand();                // expect: libc-rng
  srand(7);                      // expect: libc-rng
  long b = random();             // expect: libc-rng
  int c = std::rand();           // expect: libc-rng
  std::srand(1);                 // expect: libc-rng
  int d = ::rand();              // expect: libc-rng
  ::srand(2);                    // expect: libc-rng
  long e = std::random();        // expect: libc-rng
  long v = ::random();           // expect: libc-rng
  std::random_device rd;         // expect: random-device
  unsigned f = rng.random(3);    // fine: member call on a seeded stream
  unsigned g = gen->random(4);   // fine: member call through a pointer
  unsigned h = Rng::rand();      // fine: a class's own static, not libc
  int w = rand();                // lint: allow(libc-rng)
  (void)a; (void)b; (void)c; (void)d; (void)e;
  (void)f; (void)g; (void)h; (void)v; (void)w; (void)rd;
}

void Kernel::clocks() {
  auto a = std::chrono::steady_clock::now();           // expect: wall-clock
  auto b = std::chrono::high_resolution_clock::now();  // expect: wall-clock
  long c = time(nullptr);        // expect: wall-clock
  long d = time(NULL);           // expect: wall-clock
  long e = clock();              // expect: wall-clock
  long f = std::time(nullptr);   // expect: wall-clock
  long g = ::time(nullptr);      // expect: wall-clock
  long h = std::clock();         // expect: wall-clock
  long j = ::clock();            // expect: wall-clock
  struct timeval tv;
  gettimeofday(&tv, nullptr);    // expect: wall-clock
  struct timespec ts;
  clock_gettime(0, &ts);         // expect: wall-clock
  auto i = NOW();                // fine: flagged at the macro definition
  (void)a; (void)b; (void)c; (void)d; (void)e;
  (void)f; (void)g; (void)h; (void)i; (void)j;
}

void Kernel::containers() {
  std::unordered_set<int> seen;              // expect: unordered-container
  std::unordered_multimap<int, int> multi;   // expect: unordered-container
  std::unordered_multiset<int> bag;          // expect: unordered-container
  for (const auto& kv : by_id_) {            // expect: unordered-iter
    (void)kv;
  }
  for (int v : std::unordered_set<int>{1, 2}) {  // expect: unordered-iter, unordered-container
    (void)v;
  }
  for (const auto& kv : lookup_unordered()) {  // expect: unordered-iter
    (void)kv;
  }
  (void)seen; (void)multi; (void)bag;
}

void Kernel::threads() {
  std::thread t([] {});                        // expect: raw-thread
  t.join();
  std::jthread j([] {});                       // expect: raw-thread
  auto fut = std::async([] { return 1; });     // expect: raw-thread
  unsigned n = std::thread::hardware_concurrency();  // fine: a query
  (void)fut; (void)n;
}

void Kernel::emit(const TraceEvent& ev) {
  tracer_(ev);                   // expect: trace-emit
  this->tracer_(ev);             // expect: trace-emit
  if (tracer_) tracer_(ev);      // lint: allow(trace-emit)
}
