#include "calibrate.hpp"

#include <chrono>
#include <vector>

namespace ofarbench {
namespace {

using u64 = std::uint64_t;

u64 xorshift(u64& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

u64 rotl(u64 x, int k) { return (x << k) | (x >> (64 - k)); }

/// Random loads and stores in a table of `words` u64 (a power of two),
/// with a data-dependent branch per step.
u64 table_walk(u64 words, u64 steps) {
  std::vector<u64> table(words);
  for (u64 i = 0; i < words; ++i) table[i] = i * 0x9E3779B97F4A7C15ull;
  u64 x = 0x2545F4914F6CDD1Dull, h = 0;
  for (u64 s = 0; s < steps; ++s) {
    const u64 i = (xorshift(x) ^ h) & (words - 1);
    const u64 v = table[i];
    if (v & 1)
      table[i] = v + x;
    else
      table[(i ^ (v >> 7)) & (words - 1)] ^= x;
    h = (h ^ v) * 0x100000001B3ull;
  }
  return h;
}

/// Four independent integer streams (instruction-level parallelism) and an
/// unpredictable branch into a 32 KiB table.
u64 streams(u64 steps) {
  std::vector<u64> table(4096);
  u64 a = 1, b = 2, c = 3, d = 4, h = 0;
  for (u64 s = 0; s < steps; ++s) {
    a = a * 6364136223846793005ull + 1442695040888963407ull;
    xorshift(b);
    c = c * 0x9E3779B97F4A7C15ull + (a >> 33);
    d = rotl(d ^ b, 11) + c;
    u64& e = table[(a ^ d) >> 52];
    if ((b ^ c) & 1)
      e += d;
    else
      h ^= e;
  }
  return h + table[5];
}

}  // namespace

Calibration calibrate() {
  const auto t0 = std::chrono::steady_clock::now();
  u64 checksum = table_walk(u64{1} << 17, 1'500'000);  // 1 MiB: L2
  checksum ^= streams(3'000'000);
  checksum ^= table_walk(u64{1} << 21, 300'000);  // 16 MiB: L3 and DRAM
  const auto t1 = std::chrono::steady_clock::now();
  return {std::chrono::duration<double>(t1 - t0).count(), checksum};
}

}  // namespace ofarbench
