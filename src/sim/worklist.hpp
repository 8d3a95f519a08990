// Activity worklist of the cycle kernel: a membership bitset over a
// contiguous id range, visited in ascending id order (DESIGN.md §6).
#pragma once

#include <cstddef>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace ofar {

/// Set of ids in [begin, end), one bit per id, with a running member count.
/// Members are visited in ascending id order (ctz over each word), so the
/// bitset is both the membership flag and the iteration order: marking is
/// one OR and no pass ever sorts.
class Worklist {
 public:
  /// Empties the set and sets its id range.
  void reset(u32 begin, u32 end) {
    OFAR_DCHECK(begin <= end);
    begin_ = begin;
    end_ = end;
    words_.assign((std::size_t{end} - begin + 63) / 64, 0);
    count_ = 0;
  }

  u32 begin() const noexcept { return begin_; }
  u32 end() const noexcept { return end_; }
  /// True when `id` lies in the set's range (whether or not it is a member).
  bool in_range(u32 id) const noexcept { return id - begin_ < end_ - begin_; }
  u32 size() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }

  bool contains(u32 id) const noexcept {
    if (!in_range(id)) return false;
    const u32 i = id - begin_;
    return (words_[i >> 6] >> (i & 63) & 1) != 0;
  }

  /// Adds `id` (idempotent).
  void insert(u32 id) noexcept {
    OFAR_DCHECK(in_range(id));
    const u32 i = id - begin_;
    u64& w = words_[i >> 6];
    const u64 bit = u64{1} << (i & 63);
    if ((w & bit) != 0) return;
    w |= bit;
    ++count_;
  }

  /// Calls fn(id) for every member in ascending id order. fn must not
  /// modify this set.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    u32 left = count_;
    for (std::size_t wi = 0; left != 0; ++wi) {
      u64 w = words_[wi];
      while (w != 0) {
        fn(id_at(wi, w));
        w &= w - 1;
        --left;
      }
    }
  }

  /// Visits every member in ascending id order and removes those for which
  /// keep(id) returns false. keep must not modify this set.
  template <typename Fn>
  void retain(Fn&& keep) {
    u32 left = count_;
    for (std::size_t wi = 0; left != 0; ++wi) {
      u64 w = words_[wi];
      u64 drop = 0;
      while (w != 0) {
        const u64 low = w & (~w + 1);
        if (!keep(id_at(wi, w))) drop |= low;
        w ^= low;
        --left;
      }
      if (drop != 0) {
        words_[wi] &= ~drop;
        count_ -= static_cast<u32>(__builtin_popcountll(drop));
      }
    }
  }

 private:
  u32 id_at(std::size_t wi, u64 w) const noexcept {
    return begin_ + static_cast<u32>(wi * 64) +
           static_cast<u32>(__builtin_ctzll(w));
  }

  std::vector<u64> words_;
  u32 begin_ = 0;
  u32 end_ = 0;
  u32 count_ = 0;
};

}  // namespace ofar
