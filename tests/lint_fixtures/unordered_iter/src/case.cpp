// Fixture: range-for over a std::unordered_* container must be flagged
// even when the container type is hidden behind a typedef/using chain, or
// spelled in the range expression itself, or unresolvable but named as
// unordered; an explicit waiver suppresses the finding.

#include <unordered_map>
#include <vector>

using PendingMap = std::unordered_map<int, int>;  // expect: unordered-container
using PendingAlias = PendingMap;

struct Table {
  void scan();
  void scan_waived();
  void scan_vector();
  void scan_spelled();
  PendingAlias live_;
  std::vector<int> order_;
};

void Table::scan() {
  for (const auto& kv : live_) {  // expect: unordered-iter
    (void)kv;
  }
}

void Table::scan_waived() {
  for (const auto& kv : live_) {  // lint: allow(unordered-iter)
    (void)kv;
  }
}

void Table::scan_vector() {
  for (int v : order_) {  // fine: deterministic order
    (void)v;
  }
}

void Table::scan_spelled() {
  for (int k : std::unordered_set<int>{1, 2}) {  // expect: unordered-iter, unordered-container
    (void)k;
  }
  for (const auto& kv : remote_unordered_index()) {  // expect: unordered-iter
    (void)kv;
  }
}
