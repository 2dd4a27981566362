// Fixture: an engine loop that calls the policy and commits the bin itself
// instead of going through the placement kernel; commit-outside-kernel
// must fire on both lines.

namespace cdbp_fixture {

struct Bins {
  void addItem(int, double) {}
};
struct View {};
struct Policy {
  int place(const View&, double) { return 0; }
};

void handRolledCommit(Bins& bins, Policy& policy, double size) {
  View view;
  int target = policy.place(view, size);
  bins.addItem(target, size);
}

}  // namespace cdbp_fixture
