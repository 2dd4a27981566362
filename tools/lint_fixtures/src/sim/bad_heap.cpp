// Fixture: an engine that keeps its pending departures in a hand-rolled
// binary heap instead of the shared departure queue;
// departure-order-outside-queue must fire on every heap primitive.
#include <algorithm>
#include <queue>
#include <vector>

namespace cdbp_fixture {

struct Departure {
  double time;
  unsigned item;
};

inline bool later(const Departure& a, const Departure& b) {
  return a.time > b.time;
}

void handRolledHeap(std::vector<Departure>& pending, Departure next) {
  pending.push_back(next);
  std::push_heap(pending.begin(), pending.end(), later);
  std::pop_heap(pending.begin(), pending.end(), later);
  pending.pop_back();
}

void rebuiltHeap(std::vector<Departure>& pending) {
  std::make_heap(pending.begin(), pending.end(), later);
}

using Queue = std::priority_queue<double>;

}  // namespace cdbp_fixture
