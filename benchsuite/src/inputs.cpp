// The four workloads' input laws and the trace files generated from them.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

namespace bench {

namespace {

// Why each workload exists is in README.md; the sizes give one repetition
// of roughly 0.4-1 s on a 4-core x86 box, so a 10 s run holds 10+ reps.
const std::vector<WorkloadParams>& allWorkloads() {
  static const std::vector<WorkloadParams> workloads = {
      // File replay with few open bins: parsing dominates.
      {"replay-csv", 1'000'000, 20'000, 4.0, 16.0, 0.05, 1.0, "ff"},
      // Batch simulator over thousands of open First Fit bins.
      {"dense-batch", 400'000, 20'000, 1024.0, 64.0, 0.01, 0.1, "ff"},
      // One large run partitioned by CDT-FF's departure classes.
      {"sharded-dense", 1'000'000, 20'000, 1024.0, 256.0, 0.01, 0.1, "cdt-ff"},
      // Tenant sessions for the daemon: 4 chunks of 50k items each.
      {"serve-open", 200'000, 20'000, 128.0, 16.0, 0.05, 0.5, "cdt-ff"},
  };
  return workloads;
}

double roundTo(double value, double scale) {
  return std::nearbyint(value * scale) / scale;
}

}  // namespace

const WorkloadParams& workloadParams(const std::string& name) {
  for (const WorkloadParams& params : allWorkloads()) {
    if (params.name == name) return params;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::vector<cdbp::Item> generateItems(const WorkloadParams& params,
                                      std::uint64_t seed, std::size_t count) {
  Rng rng(seed, params.name);
  std::vector<cdbp::Item> items;
  items.reserve(count);
  double clock = 0;
  for (std::size_t i = 0; i < count; ++i) {
    clock += rng.exponential(params.arrivalRate);
    double arrival = roundTo(clock, 1e6);
    double departure = roundTo(arrival + rng.uniform(1.0, params.mu), 1e6);
    double size =
        std::max(1e-4, roundTo(rng.uniform(params.minSize, params.maxSize), 1e4));
    items.emplace_back(static_cast<cdbp::ItemId>(i), size, arrival, departure);
  }
  return items;
}

void writeTraceCsv(const std::vector<cdbp::Item>& items, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + path);
  std::string buffer = "# cdbp-trace v1\narrival,departure,size\n";
  buffer.reserve(1 << 20);
  char num[32];
  auto append = [&](double value, char sep) {
    auto [end, ec] = std::to_chars(num, num + sizeof num, value);
    (void)ec;
    buffer.append(num, end);
    buffer.push_back(sep);
  };
  for (const cdbp::Item& item : items) {
    append(item.arrival(), ',');
    append(item.departure(), ',');
    append(item.size, '\n');
    if (buffer.size() > (1 << 20) - 128) {
      out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
      buffer.clear();
    }
  }
  out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
  if (!out) throw std::runtime_error("short write to " + path);
}

std::size_t shardedWorkers() {
  unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min<std::size_t>(3, std::max(1u, hw - 1));
}

std::size_t Options::itemCount() const {
  const WorkloadParams& params = workloadParams(workload);
  return smoke ? params.smokeItems : params.items;
}

}  // namespace bench
