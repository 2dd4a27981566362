// End-to-end and robustness tests for the sharded serve daemon
// (DESIGN.md §13).
//
// Most tests adopt one end of a socketpair into the server's event loop —
// no filesystem or port allocation — and drive the other end with
// serve::Client. Single-loop servers where determinism matters; the
// multi-shard tests at the bottom run 4 loop threads and are the tsan
// preset's shard-handoff / concurrent-scrape / drain-under-load coverage.
// Listener coverage (Unix path + loopback TCP) sits in between.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "online/policy_factory.hpp"
#include "serve/client.hpp"
#include "sim/streaming.hpp"
#include "telemetry/telemetry.hpp"

namespace cdbp::serve {
namespace {

constexpr double kMinDuration = 1.0;
constexpr double kMu = 8.0;

HelloFrame makeHello(const std::string& tenant, const std::string& spec) {
  HelloFrame hello;
  hello.version = kProtocolVersion;
  hello.engine = 0;
  hello.minDuration = kMinDuration;
  hello.mu = kMu;
  hello.seed = 42;
  hello.tenant = tenant;
  hello.policySpec = spec;
  return hello;
}

ServerOptions singleLoop() {
  return ServerOptionsBuilder().loopThreads(1).build();
}

/// Server + one adopted socketpair connection, torn down in order.
struct Harness {
  explicit Harness(ServerOptions options = singleLoop()) : server(options) {
    server.start();
    int fds[2];
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    clientFd = fds[0];
    server.adoptConnection(fds[1]);
  }

  /// Adds another adopted connection, returning the client-side fd.
  int adoptAnother() {
    int fds[2];
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    server.adoptConnection(fds[1]);
    return fds[0];
  }

  Server server;
  int clientFd = -1;
};

BatchOp placeOp(double size, double arrival, double departure) {
  BatchOp op;
  op.kind = kBatchOpPlace;
  op.place = PlaceFrame{size, arrival, departure};
  return op;
}

/// Puts one BATCH frame on the wire without reading its reply, for tests
/// that split sending from reading; readBatchOk() collects the reply.
void sendBatchRaw(Client& client, const BatchFrame& batch) {
  std::vector<std::uint8_t> bytes;
  appendBatch(bytes, batch);
  client.sendRaw(bytes);
}

BatchOkFrame readBatchOk(Client& client) {
  BatchOkFrame ok;
  EXPECT_TRUE(
      decodeBatchOk(client.expectFrame(FrameType::kBatchOk).view(), ok));
  return ok;
}

void waitFor(const std::function<bool()>& done) {
  for (int i = 0; i < 2000; ++i) {
    if (done()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "condition not reached within the polling budget";
}

TEST(ServeServer, OptionsValidation) {
  // loopThreads 0 resolves to hardware concurrency (floor 1).
  ServerOptions resolved = ServerOptions{}.validated();
  EXPECT_GE(resolved.loopThreads, 1u);

  ServerOptions bad;
  bad.loopThreads = 257;
  EXPECT_THROW(bad.validated(), std::invalid_argument);
  bad = ServerOptions{};
  bad.writeBufferLimit = 0;
  EXPECT_THROW(bad.validated(), std::invalid_argument);
  bad = ServerOptions{};
  bad.maxFramePayload = 8;
  EXPECT_THROW(bad.validated(), std::invalid_argument);
  bad = ServerOptions{};
  bad.drainTimeoutNanos = 0;
  EXPECT_THROW(bad.validated(), std::invalid_argument);

  EXPECT_THROW(ServerOptionsBuilder().listenOn("tcp:nohost"),
               std::invalid_argument);
  ServerOptions built = ServerOptionsBuilder()
                            .listenOn("unix:/tmp/x.sock")
                            .loopThreads(4)
                            .writeBufferLimit(1024)
                            .build();
  EXPECT_EQ(built.loopThreads, 4u);
  ASSERT_EQ(built.listen.size(), 1u);
  EXPECT_EQ(built.listen[0].path, "/tmp/x.sock");
}

TEST(ServeServer, EndToEndSessionMatchesLocalEngine) {
  Harness h;
  Client client(h.clientFd);

  HelloOkFrame ok = client.hello(makeHello("tenant-a", "cdt-ff"));
  EXPECT_EQ(ok.version, kProtocolVersion);
  EXPECT_GT(ok.tenantId, 0u);

  // The same item sequence through a local StreamEngine: the served
  // placements must match decision for decision.
  PolicyContext context;
  context.minDuration = kMinDuration;
  context.mu = kMu;
  context.seed = 42;
  PolicyPtr local = makePolicy("cdt-ff", context);
  StreamEngine engine(*local);
  EXPECT_EQ(ok.policyName, local->name());

  std::vector<StreamItem> items;
  for (int i = 0; i < 200; ++i) {
    double arrival = 0.25 * i;
    double size = 0.1 + 0.13 * static_cast<double>(i % 7);
    double departure = arrival + kMinDuration + (i % 11);
    items.push_back(StreamItem{size, arrival, departure});
  }
  for (const StreamItem& item : items) {
    PlacedFrame served = client.place(item.size, item.arrival, item.departure);
    StreamEngine::Placement expected = engine.place(item);
    ASSERT_EQ(served.item, expected.item);
    ASSERT_EQ(served.bin, expected.bin);
    ASSERT_EQ(served.openedNewBin != 0, expected.openedNewBin);
    ASSERT_EQ(served.category, expected.category);
  }

  StatsOkFrame stats = client.stats();
  EXPECT_EQ(stats.items, engine.itemsPlaced());
  EXPECT_EQ(stats.binsOpened, engine.binsOpened());
  EXPECT_EQ(stats.openBins, engine.openBins());
  EXPECT_EQ(stats.pendingDepartures, engine.pendingDepartures());

  DepartOkFrame departed = client.departUntil(60.0);
  std::size_t localDrained = engine.drainUntil(60.0);
  EXPECT_EQ(departed.drained, localDrained);
  EXPECT_EQ(departed.openBins, engine.openBins());

  DrainOkFrame drained = client.drain();
  StreamResult result = engine.finish();
  EXPECT_EQ(drained.items, result.items);
  EXPECT_EQ(drained.totalUsage, result.totalUsage);
  EXPECT_EQ(drained.binsOpened, result.binsOpened);
  EXPECT_EQ(drained.maxOpenBins, result.maxOpenBins);
  EXPECT_EQ(drained.categoriesUsed, result.categoriesUsed);
  EXPECT_EQ(drained.lb3, result.lb3);
  EXPECT_EQ(drained.peakOpenItems, result.peakOpenItems);

  ServerStats serverStats = h.server.stats();
  EXPECT_EQ(serverStats.placements, items.size());
  EXPECT_EQ(serverStats.sessionsOpened, 1u);
  EXPECT_EQ(serverStats.sessionsFinished, 1u);
  EXPECT_EQ(serverStats.shedConnections, 0u);

  std::vector<TenantSnapshot> tenants = h.server.tenants();
  ASSERT_EQ(tenants.size(), 1u);
  EXPECT_EQ(tenants[0].name, "tenant-a");
  EXPECT_TRUE(tenants[0].finished);
}

TEST(ServeServer, TypedErrorsKeepTheConnectionServing) {
  Harness h;
  Client client(h.clientFd);

  // PLACE before HELLO.
  {
    std::vector<std::uint8_t> bytes;
    appendPlace(bytes, PlaceFrame{0.5, 0.0, 2.0});
    client.sendRaw(bytes);
    OwnedFrame reply = client.readFrame();
    ASSERT_EQ(reply.type, FrameType::kError);
    ErrorFrame error;
    ASSERT_TRUE(decodeError(reply.view(), error));
    EXPECT_EQ(error.code, ErrorCode::kUnknownTenant);
  }

  // BATCH before HELLO: typed rejection too, no disconnect.
  {
    BatchFrame batch;
    BatchOp op;
    op.place = PlaceFrame{0.5, 0.0, 2.0};
    batch.ops = {op};
    std::vector<std::uint8_t> bytes;
    appendBatch(bytes, batch);
    client.sendRaw(bytes);
    OwnedFrame reply = client.readFrame();
    ASSERT_EQ(reply.type, FrameType::kError);
    ErrorFrame error;
    ASSERT_TRUE(decodeError(reply.view(), error));
    EXPECT_EQ(error.code, ErrorCode::kUnknownTenant);
  }

  // Unknown frame type.
  {
    std::vector<std::uint8_t> bytes = {0x01, 0x00, 0x00, 0x00, 0x7E};
    client.sendRaw(bytes);
    OwnedFrame reply = client.readFrame();
    ErrorFrame error;
    ASSERT_TRUE(decodeError(reply.view(), error));
    EXPECT_EQ(error.code, ErrorCode::kUnknownFrameType);
  }

  // Zero-length frame.
  {
    std::vector<std::uint8_t> bytes = {0x00, 0x00, 0x00, 0x00};
    client.sendRaw(bytes);
    OwnedFrame reply = client.readFrame();
    ErrorFrame error;
    ASSERT_TRUE(decodeError(reply.view(), error));
    EXPECT_EQ(error.code, ErrorCode::kMalformedFrame);
  }

  // Truncated HELLO body under a self-consistent length prefix.
  {
    std::vector<std::uint8_t> bytes = {0x03, 0x00, 0x00, 0x00,
                                       0x01,  // kHello
                                       0x01, 0x00};
    client.sendRaw(bytes);
    OwnedFrame reply = client.readFrame();
    ErrorFrame error;
    ASSERT_TRUE(decodeError(reply.view(), error));
    EXPECT_EQ(error.code, ErrorCode::kMalformedFrame);
  }

  // Versions below the floor: v0 and v1 are rejected (v2 is the floor).
  for (int version : {0, 1}) {
    HelloFrame hello = makeHello("tenant", "ff");
    hello.version = static_cast<std::uint16_t>(version);
    EXPECT_THROW(
        {
          try {
            client.hello(hello);
          } catch (const ServeError& e) {
            EXPECT_EQ(e.code(), ErrorCode::kProtocolVersion);
            throw;
          }
        },
        ServeError);
  }

  // Bad policy spec.
  {
    EXPECT_THROW(
        {
          try {
            client.hello(makeHello("tenant", "no-such-policy(rho=banana)"));
          } catch (const ServeError& e) {
            EXPECT_EQ(e.code(), ErrorCode::kBadPolicySpec);
            throw;
          }
        },
        ServeError);
  }

  // After all of that the connection still opens a working session.
  HelloOkFrame ok = client.hello(makeHello("tenant", "ff"));
  EXPECT_GT(ok.tenantId, 0u);

  // Duplicate HELLO.
  EXPECT_THROW(
      {
        try {
          client.hello(makeHello("tenant-again", "bf"));
        } catch (const ServeError& e) {
          EXPECT_EQ(e.code(), ErrorCode::kDuplicateHello);
          throw;
        }
      },
      ServeError);

  // Bad item: non-positive size is rejected by the engine, session intact.
  EXPECT_THROW(
      {
        try {
          client.place(-1.0, 0.0, 2.0);
        } catch (const ServeError& e) {
          EXPECT_EQ(e.code(), ErrorCode::kBadItem);
          throw;
        }
      },
      ServeError);

  // Accepted placement, then an out-of-order DEPART behind the watermark.
  PlacedFrame placed = client.place(0.5, 5.0, 8.0);
  EXPECT_EQ(placed.bin, 0);
  EXPECT_THROW(
      {
        try {
          client.departUntil(1.0);
        } catch (const ServeError& e) {
          EXPECT_EQ(e.code(), ErrorCode::kOutOfOrder);
          throw;
        }
      },
      ServeError);

  // Out-of-order PLACE behind the watermark.
  EXPECT_THROW(
      {
        try {
          client.place(0.5, 1.0, 9.0);
        } catch (const ServeError& e) {
          EXPECT_EQ(e.code(), ErrorCode::kOutOfOrder);
          throw;
        }
      },
      ServeError);

  // The session still works and finishes cleanly.
  DrainOkFrame drained = client.drain();
  EXPECT_EQ(drained.items, 1u);

  // Requests after DRAIN are typed rejections, not disconnects.
  EXPECT_THROW(
      {
        try {
          client.place(0.5, 9.0, 12.0);
        } catch (const ServeError& e) {
          EXPECT_EQ(e.code(), ErrorCode::kSessionFinished);
          throw;
        }
      },
      ServeError);

  ServerStats stats = h.server.stats();
  EXPECT_GE(stats.errorsSent, 10u);
  EXPECT_EQ(stats.openConnections, 1u);  // never dropped
}

TEST(ServeServer, FutureClientVersionCapsAtV2) {
  Harness h;
  Client client(h.clientFd);
  HelloFrame hello = makeHello("from-the-future", "ff");
  hello.version = 9;
  HelloOkFrame ok = client.hello(hello);
  EXPECT_EQ(ok.version, kProtocolVersion);
  BatchOkFrame batched =
      client.batch().place(0.5, 0.0, 2.0).place(0.25, 0.5, 3.0).send();
  EXPECT_EQ(batched.failed, 0);
  EXPECT_EQ(batched.results.size(), 2u);
  client.drain();
}

TEST(ServeServer, BatchMatchesIndividualRequests) {
  Harness h;
  Client batched(h.clientFd);
  Client individual(h.adoptAnother());
  batched.hello(makeHello("batched", "cdt-ff"));
  individual.hello(makeHello("individual", "cdt-ff"));

  BatchOkFrame ok = batched.batch()
                        .place(0.5, 0.0, 4.0)
                        .place(0.25, 1.0, 3.0)
                        .depart(3.5)
                        .place(0.75, 4.0, 9.0)
                        .send();
  ASSERT_EQ(ok.results.size(), 4u);
  EXPECT_EQ(ok.failed, 0);

  PlacedFrame p0 = individual.place(0.5, 0.0, 4.0);
  PlacedFrame p1 = individual.place(0.25, 1.0, 3.0);
  DepartOkFrame d = individual.departUntil(3.5);
  PlacedFrame p2 = individual.place(0.75, 4.0, 9.0);

  EXPECT_EQ(ok.results[0].kind, kBatchOpPlace);
  EXPECT_EQ(ok.results[0].placed.bin, p0.bin);
  EXPECT_EQ(ok.results[1].placed.bin, p1.bin);
  EXPECT_EQ(ok.results[2].kind, kBatchOpDepart);
  EXPECT_EQ(ok.results[2].depart.drained, d.drained);
  EXPECT_EQ(ok.results[2].depart.openBins, d.openBins);
  EXPECT_EQ(ok.results[3].placed.bin, p2.bin);
  EXPECT_EQ(ok.results[3].placed.item, p2.item);

  DrainOkFrame drainedBatch = batched.drain();
  DrainOkFrame drainedIndividual = individual.drain();
  EXPECT_EQ(drainedBatch.items, drainedIndividual.items);
  EXPECT_EQ(drainedBatch.totalUsage, drainedIndividual.totalUsage);
  EXPECT_GE(h.server.stats().batches, 1u);
}

TEST(ServeServer, BatchMidFailureReturnsCompletedPrefix) {
  Harness h;
  Client client(h.clientFd);
  client.hello(makeHello("partial", "ff"));

  BatchOkFrame ok = client.batch()
                        .place(0.5, 0.0, 4.0)
                        .place(-1.0, 1.0, 3.0)  // rejected: bad size
                        .place(0.25, 2.0, 5.0)  // never runs
                        .send();
  EXPECT_EQ(ok.failed, 1);
  EXPECT_EQ(ok.failedIndex, 1u);
  ASSERT_EQ(ok.results.size(), 1u);  // the completed prefix only
  EXPECT_EQ(ok.errorCode, ErrorCode::kBadItem);

  // The session survives a non-fatal mid-batch failure.
  PlacedFrame placed = client.place(0.25, 2.0, 5.0);
  EXPECT_EQ(placed.item, 1u);
  DrainOkFrame drained = client.drain();
  EXPECT_EQ(drained.items, 2u);
}

/// What one PLACE/DEPART produced: a result, or a typed error.
struct OpOutcome {
  bool ok = false;
  BatchResultEntry result;
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

/// Sends `op` as a standalone PLACE or DEPART frame and reads its reply.
OpOutcome runStandalone(Client& client, const BatchOp& op) {
  std::vector<std::uint8_t> bytes;
  if (op.kind == kBatchOpPlace) {
    appendPlace(bytes, op.place);
  } else {
    appendDepart(bytes, op.depart);
  }
  client.sendRaw(bytes);
  OwnedFrame reply = client.readFrame();
  OpOutcome outcome;
  outcome.result.kind = op.kind;
  if (reply.type == FrameType::kError) {
    ErrorFrame error;
    EXPECT_TRUE(decodeError(reply.view(), error));
    outcome.code = error.code;
    outcome.message = error.message;
  } else if (op.kind == kBatchOpPlace) {
    outcome.ok = decodePlaced(reply.view(), outcome.result.placed);
  } else {
    outcome.ok = decodeDepartOk(reply.view(), outcome.result.depart);
  }
  return outcome;
}

TEST(ServeServer, StandaloneAndBatchRepliesAgreeIncludingFailures) {
  // A seeded mix of valid places and departs with bad sizes, arrivals and
  // departs behind the watermark, and NaN depart times. Sent op by op on
  // one session and as BATCH frames on another, every op must produce the
  // same result or the same (code, message): both framings run one
  // executor.
  std::mt19937_64 rng(20261017);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<BatchOp> ops;
  double now = 0;
  for (int i = 0; i < 300; ++i) {
    double pick = unit(rng);
    BatchOp op;
    op.kind = kBatchOpPlace;
    if (pick < 0.55) {
      now += 0.5 * unit(rng);
      op.place = PlaceFrame{0.05 + 0.55 * unit(rng), now,
                            now + kMinDuration + 7.0 * unit(rng)};
    } else if (pick < 0.67) {
      now += 2.0 * unit(rng);
      op.kind = kBatchOpDepart;
      op.depart = DepartFrame{now};
    } else if (pick < 0.74) {
      op.place = PlaceFrame{-unit(rng), now, now + 2.0};  // negative size
    } else if (pick < 0.81) {
      op.place = PlaceFrame{1.0 + unit(rng), now, now + 2.0};  // size > 1
    } else if (pick < 0.89) {
      op.place = PlaceFrame{0.3, now - 1.0 - unit(rng), now + 2.0};  // behind
    } else if (pick < 0.95) {
      op.kind = kBatchOpDepart;
      op.depart = DepartFrame{std::numeric_limits<double>::quiet_NaN()};
    } else {
      op.kind = kBatchOpDepart;
      op.depart = DepartFrame{now - 1.0};  // behind the watermark
    }
    ops.push_back(op);
  }

  Harness h;
  Client single(h.clientFd);
  Client batched(h.adoptAnother());
  single.hello(makeHello("standalone", "cdt-ff"));
  batched.hello(makeHello("batched", "cdt-ff"));

  std::vector<OpOutcome> fromSingle;
  for (const BatchOp& op : ops) fromSingle.push_back(runStandalone(single, op));

  // BATCH frames of up to 64 ops; after a mid-batch failure the rest of
  // that batch goes out again in a new frame.
  std::vector<OpOutcome> fromBatch;
  std::size_t next = 0;
  while (next < ops.size()) {
    std::size_t end = std::min(next + 64, ops.size());
    Client::Batch batch = batched.batch();
    for (std::size_t i = next; i < end; ++i) {
      if (ops[i].kind == kBatchOpPlace) {
        batch.place(ops[i].place.size, ops[i].place.arrival,
                    ops[i].place.departure);
      } else {
        batch.depart(ops[i].depart.time);
      }
    }
    BatchOkFrame ok = batch.send();
    for (const BatchResultEntry& entry : ok.results) {
      OpOutcome outcome;
      outcome.ok = true;
      outcome.result = entry;
      fromBatch.push_back(outcome);
    }
    next += ok.results.size();
    if (ok.failed != 0) {
      ASSERT_EQ(ok.failedIndex, ok.results.size());
      OpOutcome outcome;
      outcome.result.kind = ops[next].kind;
      outcome.code = ok.errorCode;
      outcome.message = ok.errorMessage;
      fromBatch.push_back(outcome);
      ++next;
    }
  }

  ASSERT_EQ(fromSingle.size(), ops.size());
  ASSERT_EQ(fromBatch.size(), ops.size());
  std::size_t badItems = 0;
  std::size_t outOfOrder = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const OpOutcome& a = fromSingle[i];
    const OpOutcome& b = fromBatch[i];
    ASSERT_EQ(a.ok, b.ok) << "op " << i;
    ASSERT_EQ(a.result.kind, b.result.kind) << "op " << i;
    if (!a.ok) {
      EXPECT_EQ(a.code, b.code) << "op " << i;
      EXPECT_EQ(a.message, b.message) << "op " << i;
      badItems += a.code == ErrorCode::kBadItem ? 1 : 0;
      outOfOrder += a.code == ErrorCode::kOutOfOrder ? 1 : 0;
    } else if (a.result.kind == kBatchOpPlace) {
      EXPECT_EQ(a.result.placed.item, b.result.placed.item) << "op " << i;
      EXPECT_EQ(a.result.placed.bin, b.result.placed.bin) << "op " << i;
      EXPECT_EQ(a.result.placed.openedNewBin, b.result.placed.openedNewBin)
          << "op " << i;
      EXPECT_EQ(a.result.placed.category, b.result.placed.category)
          << "op " << i;
    } else {
      EXPECT_EQ(a.result.depart.drained, b.result.depart.drained)
          << "op " << i;
      EXPECT_EQ(a.result.depart.openBins, b.result.depart.openBins)
          << "op " << i;
    }
  }
  // The mix really exercised both failure codes.
  EXPECT_GT(badItems, 10u);
  EXPECT_GT(outOfOrder, 10u);

  DrainOkFrame drainedSingle = single.drain();
  DrainOkFrame drainedBatch = batched.drain();
  EXPECT_EQ(drainedSingle.items, drainedBatch.items);
  EXPECT_EQ(drainedSingle.totalUsage, drainedBatch.totalUsage);
}

TEST(ServeServer, BatchBuilderRefusesOversizeAndV1Sessions) {
  Harness h;
  Client client(h.clientFd);

  // Before hello() the server answers with a typed kUnknownTenant error.
  EXPECT_THROW(
      {
        try {
          client.batch().place(0.5, 0.0, 1.0).send();
        } catch (const ServeError& e) {
          EXPECT_EQ(e.code(), ErrorCode::kUnknownTenant);
          throw;
        }
      },
      ServeError);

  client.hello(makeHello("caps", "ff"));
  Client::Batch batch = client.batch();
  for (std::size_t i = 0; i <= kMaxBatchOps; ++i) {
    batch.place(0.1, static_cast<double>(i), static_cast<double>(i) + 1.0);
  }
  EXPECT_EQ(batch.size(), kMaxBatchOps + 1);
  EXPECT_THROW(batch.send(), std::logic_error);
  client.drain();
}

TEST(ServeServer, OversizedFramePrefixShedsTheConnection) {
  Harness h;
  Client client(h.clientFd);
  // Length prefix far above the cap: the server cannot resync past an
  // untrusted length, so it answers kOversizedFrame and closes.
  std::vector<std::uint8_t> bytes = {0xFF, 0xFF, 0xFF, 0x7F, 0x02};
  client.sendRaw(bytes);
  OwnedFrame reply = client.readFrame();
  ErrorFrame error;
  ASSERT_TRUE(decodeError(reply.view(), error));
  EXPECT_EQ(error.code, ErrorCode::kOversizedFrame);
  EXPECT_THROW(client.readFrame(), std::runtime_error);  // EOF follows
  waitFor([&] { return h.server.stats().openConnections == 0; });
}

TEST(ServeServer, BackpressureBoundsServerMemory) {
  ServerOptions options = singleLoop();
  options.writeBufferLimit = 4096;
  Harness h(options);
  Client client(h.clientFd);
  client.hello(makeHello("flood", "ff"));

  // Stop reading replies and flood PLACE frames until the transport
  // clogs. The server must throttle: replies buffer up to the limit, then
  // frame processing stops, then reading stops — memory stays bounded no
  // matter how much the client sends.
  ASSERT_EQ(fcntl(h.clientFd, F_SETFL,
                  fcntl(h.clientFd, F_GETFL, 0) | O_NONBLOCK),
            0);
  std::vector<std::uint8_t> frame;
  appendPlace(frame, PlaceFrame{0.001, 100.0, 200.0});
  std::size_t queuedFrames = 0;
  std::size_t partial = 0;  // bytes of a frame already on the wire
  while (queuedFrames < 200000) {
    ssize_t n = send(h.clientFd, frame.data() + partial,
                     frame.size() - partial, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK);
      break;  // both kernel buffers and the server's bound are full
    }
    partial += static_cast<std::size_t>(n);
    if (partial == frame.size()) {
      partial = 0;
      ++queuedFrames;
    }
  }
  ASSERT_GT(queuedFrames, 0u);

  // The flood throttled the connection at least once, and the write
  // buffer never grew past the limit plus one reply frame.
  waitFor([&] { return h.server.stats().throttleEvents >= 1; });
  const std::size_t replyBound = 64;  // PLACED/error replies are tiny
  EXPECT_LE(h.server.stats().peakWriteBuffered,
            options.writeBufferLimit + replyBound);
  EXPECT_EQ(h.server.stats().shedConnections, 0u);

  // Resume reading: every queued request gets its reply and the session
  // finishes normally.
  int flags = fcntl(h.clientFd, F_GETFL, 0);
  ASSERT_EQ(fcntl(h.clientFd, F_SETFL, flags & ~O_NONBLOCK), 0);
  for (std::size_t i = 0; i < queuedFrames; ++i) {
    OwnedFrame reply = client.expectFrame(FrameType::kPlaced);
    PlacedFrame placed;
    ASSERT_TRUE(decodePlaced(reply.view(), placed));
  }
  if (partial > 0) {
    // A frame was cut mid-write when the transport clogged. The server
    // has drained by now, so finish it (blocking) to restore framing.
    std::vector<std::uint8_t> rest(frame.begin() +
                                       static_cast<std::ptrdiff_t>(partial),
                                   frame.end());
    client.sendRaw(rest);
    ++queuedFrames;
    OwnedFrame reply = client.expectFrame(FrameType::kPlaced);
    PlacedFrame placed;
    ASSERT_TRUE(decodePlaced(reply.view(), placed));
  }
  DrainOkFrame drained = client.drain();
  EXPECT_EQ(drained.items, queuedFrames);
  EXPECT_LE(h.server.stats().peakWriteBuffered,
            options.writeBufferLimit + replyBound);
}

TEST(ServeServer, GracefulDrainAnswersInFlightRequestsAndExits) {
  Harness h;
  Client client(h.clientFd);
  client.hello(makeHello("draining", "bf"));

  // Send a burst, then request the drain before reading anything:
  // every fully-received request must still be answered.
  constexpr std::size_t kBurst = 500;
  BatchFrame burst;
  for (std::size_t i = 0; i < kBurst; ++i) {
    double arrival = 0.01 * static_cast<double>(i);
    burst.ops.push_back(placeOp(0.2, arrival, arrival + 5.0));
  }
  sendBatchRaw(client, burst);
  // Make sure the burst reached the loop before the drain flag does.
  waitFor([&] { return h.server.stats().placements >= 1; });
  h.server.requestDrain();

  BatchOkFrame ok = readBatchOk(client);
  ASSERT_EQ(ok.results.size(), kBurst);
  for (std::size_t i = 0; i < kBurst; ++i) {
    EXPECT_EQ(ok.results[i].placed.item, i);
  }
  // After the replies flush the server closes and the loop exits.
  EXPECT_THROW(client.readFrame(), std::runtime_error);
  h.server.join();
  ServerStats stats = h.server.stats();
  EXPECT_TRUE(stats.draining);
  EXPECT_TRUE(stats.drained);
  EXPECT_EQ(stats.placements, kBurst);
  EXPECT_FALSE(h.server.running());
}

TEST(ServeServer, ScrapeReturnsLiveTelemetryDuringLoad) {
  Harness h;
  Client client(h.clientFd);
  HelloOkFrame ok = client.hello(makeHello("scraped", "cd-ff"));
  for (int i = 0; i < 50; ++i) {
    client.place(0.3, static_cast<double>(i), static_cast<double>(i) + 3.0);
  }
  std::string text = client.scrape();
  if (telemetry::kEnabled) {
    // Live counters from this very session are visible in the scrape.
    EXPECT_NE(text.find("cdbp_serve_placements"), std::string::npos);
    EXPECT_NE(text.find("cdbp_serve_frames_rx"), std::string::npos);
    // Per-tenant counters (v2): serve.tenant.<id>.placements et al.
    std::string prefix =
        "cdbp_serve_tenant_" + std::to_string(ok.tenantId) + "_";
    EXPECT_NE(text.find(prefix + "placements"), std::string::npos);
    EXPECT_NE(text.find(prefix + "bytes"), std::string::npos);
  } else {
    // Telemetry compiled out: the scrape endpoint still answers.
    EXPECT_TRUE(text.empty());
  }
  client.drain();
}

TEST(ServeServer, TenantsAreIsolated) {
  Harness h;
  Client a(h.clientFd);
  Client b(h.adoptAnother());

  a.hello(makeHello("tenant-a", "ff"));
  b.hello(makeHello("tenant-b", "ff"));

  // Interleaved sessions with identical items: isolation means each
  // tenant's bins fill independently (same decisions in both sessions),
  // not shared.
  for (int i = 0; i < 20; ++i) {
    double arrival = static_cast<double>(i);
    PlacedFrame fromA = a.place(0.4, arrival, arrival + 50.0);
    PlacedFrame fromB = b.place(0.4, arrival, arrival + 50.0);
    ASSERT_EQ(fromA.bin, fromB.bin) << "sessions diverged at item " << i;
  }
  DrainOkFrame drainedA = a.drain();
  DrainOkFrame drainedB = b.drain();
  EXPECT_EQ(drainedA.binsOpened, drainedB.binsOpened);
  EXPECT_EQ(drainedA.totalUsage, drainedB.totalUsage);

  std::vector<TenantSnapshot> tenants = h.server.tenants();
  ASSERT_EQ(tenants.size(), 2u);
  EXPECT_EQ(tenants[0].name, "tenant-a");
  EXPECT_EQ(tenants[1].name, "tenant-b");
  EXPECT_EQ(tenants[0].items, 20u);
  EXPECT_EQ(tenants[1].items, 20u);
}

TEST(ServeServer, HalfCloseFlushesPendingRepliesBeforeClosing) {
  Harness h;
  Client client(h.clientFd);
  client.hello(makeHello("half-close", "ff"));
  BatchFrame burst;
  for (int i = 0; i < 10; ++i) {
    burst.ops.push_back(
        placeOp(0.1, static_cast<double>(i), static_cast<double>(i) + 2.0));
  }
  sendBatchRaw(client, burst);
  // Shut down the write side only: the server must answer what it already
  // received, then close.
  ASSERT_EQ(shutdown(client.fd(), SHUT_WR), 0);
  BatchOkFrame ok = readBatchOk(client);
  ASSERT_EQ(ok.results.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(ok.results[i].placed.item, i);
  }
  EXPECT_THROW(client.readFrame(), std::runtime_error);
  waitFor([&] { return h.server.stats().openConnections == 0; });
}

TEST(ServeServer, UnixListenerAcceptsAndServes) {
  std::string path = testing::TempDir() + "cdbp_serve_" +
                     std::to_string(::getpid()) + ".sock";
  Server server(
      ServerOptionsBuilder().listenOn("unix:" + path).loopThreads(1).build());
  server.start();

  Client client = Client::connectUnix(path);
  HelloOkFrame ok = client.hello(makeHello("via-unix", "min-ext"));
  EXPECT_GT(ok.tenantId, 0u);
  PlacedFrame placed = client.place(0.5, 0.0, 4.0);
  EXPECT_EQ(placed.bin, 0);
  DrainOkFrame drained = client.drain();
  EXPECT_EQ(drained.items, 1u);
  server.stop();
  server.join();
  ::unlink(path.c_str());
}

TEST(ServeServer, TcpListenerBindsEphemeralPortAndServes) {
  Server server(ServerOptionsBuilder()
                    .listenOn("tcp:127.0.0.1:0")
                    .loopThreads(2)
                    .build());
  server.start();
  ASSERT_GT(server.tcpPort(), 0);

  Client client = Client::connectTcp("127.0.0.1", server.tcpPort());
  client.hello(makeHello("via-tcp", "ff"));
  PlacedFrame placed = client.place(0.25, 0.0, 2.0);
  EXPECT_EQ(placed.bin, 0);
  EXPECT_EQ(server.stats().connectionsAccepted, 1u);
  client.drain();
  server.stop();
  server.join();
}

// --- multi-shard coverage (the tsan preset's priority filter pulls
// these in via the 'Serve' name fragment) ----------------------------------

TEST(ServeServer, ShardHandoffDistributesConnectionsRoundRobin) {
  Server server(ServerOptionsBuilder().loopThreads(4).build());
  server.start();

  std::vector<Client> clients;
  for (int i = 0; i < 8; ++i) {
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    server.adoptConnection(fds[1]);
    clients.emplace_back(fds[0]);
  }
  // Drive every session concurrently: the handoff queue and the eventfd
  // wake path see real cross-thread traffic.
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    threads.emplace_back([&, i] {
      Client& client = clients[i];
      client.hello(makeHello("shard-" + std::to_string(i), "ff"));
      for (int j = 0; j < 50; ++j) {
        client.place(0.2, static_cast<double>(j),
                     static_cast<double>(j) + 4.0);
      }
      client.drain();
    });
  }
  for (std::thread& t : threads) t.join();

  // 8 connections over 4 shards round-robin: exactly 2 each.
  std::vector<std::uint64_t> perShard = server.shardConnectionCounts();
  ASSERT_EQ(perShard.size(), 4u);
  for (std::size_t s = 0; s < perShard.size(); ++s) {
    EXPECT_EQ(perShard[s], 2u) << "shard " << s;
  }
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.placements, 8u * 50u);
  EXPECT_EQ(stats.sessionsFinished, 8u);
  server.stop();
  server.join();
}

TEST(ServeServer, MultiShardHalfCloseFlushesEveryConnection) {
  Server server(ServerOptionsBuilder().loopThreads(4).build());
  server.start();

  std::vector<Client> clients;
  for (int i = 0; i < 8; ++i) {
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    server.adoptConnection(fds[1]);
    clients.emplace_back(fds[0]);
  }
  for (std::size_t i = 0; i < clients.size(); ++i) {
    clients[i].hello(makeHello("hc-" + std::to_string(i), "ff"));
    BatchFrame burst;
    for (int j = 0; j < 10; ++j) {
      burst.ops.push_back(
          placeOp(0.1, static_cast<double>(j), static_cast<double>(j) + 2.0));
    }
    sendBatchRaw(clients[i], burst);
    ASSERT_EQ(shutdown(clients[i].fd(), SHUT_WR), 0);
  }
  for (Client& client : clients) {
    BatchOkFrame ok = readBatchOk(client);
    ASSERT_EQ(ok.results.size(), 10u);
    for (std::size_t j = 0; j < 10; ++j) {
      EXPECT_EQ(ok.results[j].placed.item, j);
    }
    EXPECT_THROW(client.readFrame(), std::runtime_error);
  }
  waitFor([&] { return server.stats().openConnections == 0; });
  EXPECT_EQ(server.stats().placements, 8u * 10u);
  server.stop();
  server.join();
}

TEST(ServeServer, ConcurrentScrapeWhilePlacing) {
  Server server(ServerOptionsBuilder().loopThreads(4).build());
  server.start();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> scrapesDone{0};
  std::vector<std::thread> threads;
  // Two placer sessions and two scraper sessions, all concurrent, each
  // pinned to a different shard by the round-robin router.
  for (int i = 0; i < 2; ++i) {
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    server.adoptConnection(fds[1]);
    threads.emplace_back([fd = fds[0], i, &stop] {
      Client client(fd);
      client.hello(makeHello("placer-" + std::to_string(i), "cdt-ff"));
      double arrival = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        client.place(0.3, arrival, arrival + 5.0);
        arrival += 0.25;
      }
      client.drain();
    });
  }
  for (int i = 0; i < 2; ++i) {
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    server.adoptConnection(fds[1]);
    threads.emplace_back([fd = fds[0], &stop, &scrapesDone] {
      Client client(fd);
      int scrapes = 0;
      while (!stop.load(std::memory_order_relaxed) && scrapes < 200) {
        std::string text = client.scrape();
        if (telemetry::kEnabled) {
          EXPECT_FALSE(text.empty());
        }
        ++scrapes;
        scrapesDone.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();

  EXPECT_GT(scrapesDone.load(), 0u);
  EXPECT_GT(server.stats().placements, 0u);
  server.stop();
  server.join();
}

TEST(ServeServer, DrainUnderLoadAcrossShards) {
  Server server(ServerOptionsBuilder().loopThreads(4).build());
  server.start();

  std::atomic<std::uint64_t> clientReads{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    server.adoptConnection(fds[1]);
    threads.emplace_back([fd = fds[0], i, &clientReads] {
      try {
        Client client(fd);
        client.hello(makeHello("load-" + std::to_string(i), "ff"));
        double arrival = 0;
        while (true) {
          Client::Batch batch = client.batch();
          for (int j = 0; j < 64; ++j) {
            batch.place(0.2, arrival, arrival + 5.0);
            arrival += 0.01;
          }
          clientReads.fetch_add(batch.send().results.size(),
                                std::memory_order_relaxed);
        }
      } catch (const std::exception&) {
        // The drain closed the connection mid-burst: expected.
      }
    });
  }
  waitFor([&] { return server.stats().placements >= 512; });
  server.requestDrain();
  for (std::thread& t : threads) t.join();
  server.join();

  ServerStats stats = server.stats();
  EXPECT_TRUE(stats.draining);
  EXPECT_TRUE(stats.drained);
  EXPECT_FALSE(server.running());
  // Every reply the clients managed to read was for an executed
  // placement; the server may have executed more (replies cut by the
  // close or never read after a send failure).
  EXPECT_LE(clientReads.load(), stats.placements);
  EXPECT_GE(stats.placements, 512u);
}

}  // namespace
}  // namespace cdbp::serve
