// Golden bytes for the BATCH and BATCH_OK encoders: each frame is appended
// after bytes already in the buffer and compared, byte for byte, against a
// hand-written little-endian encoding of the cdbp-serve v2 layout
// (protocol.hpp). The round-trip tests in protocol_test.cpp would still
// pass if encoder and decoder drifted together; these would not.
#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace cdbp::serve {
namespace {

using Bytes = std::vector<std::uint8_t>;

// Appends `tail` to `head`.
Bytes concat(Bytes head, const Bytes& tail) {
  head.insert(head.end(), tail.begin(), tail.end());
  return head;
}

const Bytes kExisting = {0xAA, 0xBB, 0xCC};

TEST(ServeProtocolGolden, BatchAppendsLittleEndianOps) {
  BatchFrame batch;
  BatchOp place;
  place.kind = kBatchOpPlace;
  place.place = PlaceFrame{0.5, 1.0, 3.0};
  BatchOp depart;
  depart.kind = kBatchOpDepart;
  depart.depart = DepartFrame{2.0};
  batch.ops = {place, depart};

  Bytes bytes = kExisting;
  appendBatch(bytes, batch);

  const Bytes expected = concat(
      kExisting,
      {
          0x27, 0x00, 0x00, 0x00,                          // payload: 39 bytes
          0x07,                                            // BATCH
          0x02, 0x00, 0x00, 0x00,                          // 2 ops
          0x00,                                            // place
          0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F,  // size 0.5
          0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,  // arrival 1.0
          0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x40,  // departure 3.0
          0x01,                                            // depart
          0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40,  // time 2.0
      });
  EXPECT_EQ(bytes, expected);
}

TEST(ServeProtocolGolden, BatchOkAppendsResultsThenTheFailure) {
  BatchOkFrame ok;
  BatchResultEntry placed;
  placed.kind = kBatchOpPlace;
  placed.placed.item = 5;
  placed.placed.bin = 3;
  placed.placed.openedNewBin = 1;
  placed.placed.category = -2;
  BatchResultEntry departed;
  departed.kind = kBatchOpDepart;
  departed.depart.drained = 0x0102030405060708ull;
  departed.depart.openBins = 7;
  ok.results = {placed, departed};
  ok.failed = 1;
  ok.failedIndex = 2;
  ok.errorCode = ErrorCode::kOutOfOrder;
  ok.errorMessage = "late";

  Bytes bytes = kExisting;
  appendBatchOk(bytes, ok);

  const Bytes expected = concat(
      kExisting,
      {
          0x31, 0x00, 0x00, 0x00,                          // payload: 49 bytes
          0x87,                                            // BATCH_OK
          0x02, 0x00, 0x00, 0x00,                          // 2 results
          0x00,                                            // placed
          0x05, 0x00, 0x00, 0x00,                          // item 5
          0x03, 0x00, 0x00, 0x00,                          // bin 3
          0x01,                                            // opened a bin
          0xFE, 0xFF, 0xFF, 0xFF,                          // category -2
          0x01,                                            // depart
          0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // drained
          0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // open bins 7
          0x01,                                            // failed
          0x02, 0x00, 0x00, 0x00,                          // at op 2
          0x09, 0x00,                                      // out-of-order
          0x04, 0x00, 'l', 'a', 't', 'e',                  // message
      });
  EXPECT_EQ(bytes, expected);
}

TEST(ServeProtocolGolden, BatchOkWithoutFailureEndsAtTheFlag) {
  BatchOkFrame ok;
  BatchResultEntry departed;
  departed.kind = kBatchOpDepart;
  departed.depart.drained = 1;
  departed.depart.openBins = 0;
  ok.results = {departed};

  Bytes bytes = kExisting;
  appendBatchOk(bytes, ok);

  const Bytes expected = concat(
      kExisting,
      {
          0x17, 0x00, 0x00, 0x00,                          // payload: 23 bytes
          0x87,                                            // BATCH_OK
          0x01, 0x00, 0x00, 0x00,                          // 1 result
          0x01,                                            // depart
          0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // drained 1
          0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // open bins 0
          0x00,                                            // not failed
      });
  EXPECT_EQ(bytes, expected);
}

}  // namespace
}  // namespace cdbp::serve
