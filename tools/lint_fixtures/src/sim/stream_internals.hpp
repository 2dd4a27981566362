// Fixture: the placement kernel's home is the one file under src/sim/
// where a policy call and a bin commit are allowed; commit-outside-kernel
// must stay quiet here.
#pragma once

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

}  // namespace cdbp_fixture
