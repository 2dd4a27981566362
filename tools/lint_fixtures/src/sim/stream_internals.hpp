// Fixture: the placement kernel's home is the one file under src/sim/
// where a policy call, a bin commit and a heap primitive are allowed;
// commit-outside-kernel and departure-order-outside-queue must stay quiet
// here.
#pragma once

#include <algorithm>
#include <vector>

namespace cdbp_fixture {

struct Bins {
  void addItem(int, double) {}
};
struct View {};
struct Policy {
  int place(const View&, double) { return 0; }
};

inline int commitPlacement(Bins& bins, Policy& policy, double size) {
  View view;
  int target = policy.place(view, size);
  bins.addItem(target, size);
  return target;
}

inline void pushDeparture(std::vector<double>& pending, double time) {
  pending.push_back(time);
  std::push_heap(pending.begin(), pending.end());
}

}  // namespace cdbp_fixture
