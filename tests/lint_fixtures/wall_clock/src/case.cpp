// Fixture: wall-clock reads must be flagged everywhere (simulation state
// must advance on Network::now()), including when the clock type is
// laundered through a using-alias, and outside function bodies.

#include <chrono>
#include <ctime>

using WallClock = std::chrono::steady_clock;  // expect: wall-clock

static const auto kStart = WallClock::now();  // expect: wall-clock

struct Timer {
  void tick();
  void libc();
  std::chrono::system_clock::time_point last_;  // expect: wall-clock
};

void Timer::tick() {
  auto a = std::chrono::steady_clock::now();  // expect: wall-clock
  auto b = WallClock::now();                  // expect: wall-clock
  (void)a;
  (void)b;
}

void Timer::libc() {
  long a = time(nullptr);       // expect: wall-clock
  long b = std::time(nullptr);  // expect: wall-clock
  struct timeval tv;
  gettimeofday(&tv, nullptr);   // expect: wall-clock
  long c = last_.time(0);       // fine: a member function named time
  (void)a;
  (void)b;
  (void)c;
}
