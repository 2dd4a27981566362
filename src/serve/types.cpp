#include "serve/types.hpp"

#include <stdexcept>
#include <thread>

#include "telemetry/telemetry.hpp"

namespace cdbp::serve {

ServerOptions ServerOptions::validated() const {
  ServerOptions v = *this;
  if (v.loopThreads == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    v.loopThreads = hw == 0 ? 1 : hw;
  }
  if (v.loopThreads > 256) {
    throw std::invalid_argument("ServerOptions::loopThreads > 256");
  }
  // The smallest useful cap still has to admit every fixed-size frame;
  // DRAIN_OK is the largest at 61 payload bytes.
  if (v.maxFramePayload < 64) {
    throw std::invalid_argument("ServerOptions::maxFramePayload < 64");
  }
  if (v.writeBufferLimit == 0) {
    throw std::invalid_argument("ServerOptions::writeBufferLimit == 0");
  }
  if (v.drainTimeoutNanos == 0) {
    throw std::invalid_argument("ServerOptions::drainTimeoutNanos == 0");
  }
  for (const Address& address : v.listen) {
    if (address.kind == Address::Kind::kUnix && address.path.empty()) {
      throw std::invalid_argument("ServerOptions::listen: empty unix path");
    }
    if (address.kind == Address::Kind::kTcp && address.host.empty()) {
      throw std::invalid_argument("ServerOptions::listen: empty tcp host");
    }
  }
  return v;
}

ServerOptionsBuilder& ServerOptionsBuilder::listenOn(const std::string& spec) {
  Address address;
  std::string error;
  if (!parseAddress(spec, address, error)) {
    throw std::invalid_argument("listenOn('" + spec + "'): " + error);
  }
  options_.listen.push_back(std::move(address));
  return *this;
}

ServerOptionsBuilder& ServerOptionsBuilder::listenOn(Address address) {
  options_.listen.push_back(std::move(address));
  return *this;
}

ServerOptionsBuilder& ServerOptionsBuilder::loopThreads(unsigned n) {
  options_.loopThreads = n;
  return *this;
}

ServerOptionsBuilder& ServerOptionsBuilder::maxFramePayload(std::size_t bytes) {
  options_.maxFramePayload = bytes;
  return *this;
}

ServerOptionsBuilder& ServerOptionsBuilder::writeBufferLimit(std::size_t bytes) {
  options_.writeBufferLimit = bytes;
  return *this;
}

ServerOptionsBuilder& ServerOptionsBuilder::drainTimeout(std::uint64_t nanos) {
  options_.drainTimeoutNanos = nanos;
  return *this;
}

ServerOptions ServerOptionsBuilder::build() const {
  return options_.validated();
}

void ShardCounters::addTo(ServerStats& out) const {
  out.connectionsAccepted +=
      connectionsAccepted.load(std::memory_order_relaxed);
  out.connectionsAdopted += connectionsAdopted.load(std::memory_order_relaxed);
  out.connectionsClosed += connectionsClosed.load(std::memory_order_relaxed);
  out.openConnections += openConnections.load(std::memory_order_relaxed);
  out.framesReceived += framesReceived.load(std::memory_order_relaxed);
  out.framesSent += framesSent.load(std::memory_order_relaxed);
  out.errorsSent += errorsSent.load(std::memory_order_relaxed);
  out.placements += placements.load(std::memory_order_relaxed);
  out.batches += batches.load(std::memory_order_relaxed);
  out.sessionsOpened += sessionsOpened.load(std::memory_order_relaxed);
  out.sessionsFinished += sessionsFinished.load(std::memory_order_relaxed);
  out.throttleEvents += throttleEvents.load(std::memory_order_relaxed);
  out.shedConnections += shedConnections.load(std::memory_order_relaxed);
  out.bytesReceived += bytesReceived.load(std::memory_order_relaxed);
  out.bytesSent += bytesSent.load(std::memory_order_relaxed);
  std::size_t peak = peakWriteBuffered();
  if (peak > out.peakWriteBuffered) out.peakWriteBuffered = peak;
  out.draining = out.draining || draining.load(std::memory_order_relaxed);
  out.drained = out.drained && drained.load(std::memory_order_relaxed);
}

std::uint64_t TenantTable::open(const std::string& name,
                                const std::string& policyName) {
  std::size_t count = 0;
  std::uint64_t id = 0;
  {
    MutexLock lock(mu_);
    id = nextId_++;
    TenantSnapshot& row = tenants_[id];
    row.id = id;
    row.name = name;
    row.policyName = policyName;
    count = tenants_.size();
  }
  CDBP_TELEM_GAUGE_SET("serve.tenants", count);
  return id;
}

void TenantTable::noteProgress(std::uint64_t id, std::uint64_t items,
                               std::uint64_t openBins) {
  MutexLock lock(mu_);
  auto it = tenants_.find(id);
  if (it == tenants_.end()) return;
  it->second.items = items;
  it->second.openBins = openBins;
}

void TenantTable::markFinished(std::uint64_t id, std::uint64_t items,
                               std::uint64_t openBins) {
  MutexLock lock(mu_);
  auto it = tenants_.find(id);
  if (it == tenants_.end()) return;
  it->second.items = items;
  it->second.openBins = openBins;
  it->second.finished = true;
}

void TenantTable::markFinished(std::uint64_t id) {
  MutexLock lock(mu_);
  auto it = tenants_.find(id);
  if (it == tenants_.end()) return;
  it->second.finished = true;
}

std::vector<TenantSnapshot> TenantTable::snapshot() const {
  MutexLock lock(mu_);
  std::vector<TenantSnapshot> out;
  out.reserve(tenants_.size());
  for (const auto& [id, row] : tenants_) out.push_back(row);
  return out;
}

}  // namespace cdbp::serve
