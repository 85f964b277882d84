// Zero-copy datapath building blocks: ByteWriter/ByteReader edge cases,
// the owned-or-borrowed Bytes field type, FramePool slab reuse, and
// SharedFrame fan-out semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "protocol/frame.h"
#include "util/bytes.h"
#include "util/frame_pool.h"

namespace marea {
namespace {

// --- ByteWriter / ByteReader edge cases ---------------------------------

TEST(ByteWriterTest, VarintBoundaries) {
  // Every power-of-128 boundary changes the encoded length by one byte.
  const uint64_t cases[] = {0,
                            1,
                            0x7F,
                            0x80,
                            0x3FFF,
                            0x4000,
                            0x1FFFFF,
                            0x200000,
                            0xFFFFFFFFull,
                            0x7FFFFFFFFFFFFFFFull,
                            std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : cases) {
    ByteWriter w;
    w.varint(v);
    ByteReader r(w.view());
    EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.at_end()) << "value " << v;
  }
  // Encoded lengths at the first two boundaries.
  ByteWriter w1;
  w1.varint(0x7F);
  EXPECT_EQ(w1.size(), 1u);
  ByteWriter w2;
  w2.varint(0x80);
  EXPECT_EQ(w2.size(), 2u);
}

TEST(ByteWriterTest, SvarintRoundTripsExtremes) {
  const int64_t cases[] = {0, -1, 1, -64, 64,
                           std::numeric_limits<int64_t>::min(),
                           std::numeric_limits<int64_t>::max()};
  for (int64_t v : cases) {
    ByteWriter w;
    w.svarint(v);
    ByteReader r(w.view());
    EXPECT_EQ(r.svarint(), v);
    EXPECT_TRUE(r.ok());
  }
}

TEST(ByteReaderTest, TruncatedBlobFailsWithoutOverread) {
  ByteWriter w;
  w.blob(Buffer{1, 2, 3, 4, 5});
  Buffer encoded = w.take();
  // Drop the last two payload bytes: length prefix promises 5, only 3
  // remain. The reader must fail, not read out of bounds.
  encoded.resize(encoded.size() - 2);
  ByteReader r{BytesView(encoded)};
  BytesView blob = r.blob();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(blob.empty());
}

TEST(ByteReaderTest, BlobLengthPrefixBeyondInputFails) {
  // A varint length far larger than the remaining input (the classic
  // malicious-length attack) must fail cleanly.
  ByteWriter w;
  w.varint(1u << 30);
  w.u8(0xAB);
  ByteReader r(w.view());
  (void)r.blob();
  EXPECT_FALSE(r.ok());
}

TEST(ByteReaderTest, OverlongVarintFails) {
  // 11 continuation bytes exceed the 64-bit shift budget.
  Buffer bad(11, 0x80);
  ByteReader r{BytesView(bad)};
  (void)r.varint();
  EXPECT_FALSE(r.ok());
}

TEST(ByteWriterTest, SkipAndPatchReservedHeader) {
  // The in-place framing pattern: reserve space, write the body, patch
  // the header once the value (length/CRC) is known.
  ByteWriter w;
  w.u8(0x4D);
  size_t patch_at = w.size();
  w.skip(4);  // reserved, zero-filled
  EXPECT_EQ(w.view()[patch_at], 0);
  w.str("body");
  w.patch_u32(patch_at, 0xDEADBEEF);

  ByteReader r(w.view());
  EXPECT_EQ(r.u8(), 0x4D);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.str(), "body");
  EXPECT_TRUE(r.ok());
}

TEST(ByteWriterTest, ExternalBufferModeAppendsInPlace) {
  Buffer slab;
  slab.reserve(64);
  const uint8_t* base = slab.data();
  {
    ByteWriter w(slab);
    w.u32(42);
    w.str("hi");
  }
  // Bytes landed directly in the caller's buffer, no reallocation.
  EXPECT_EQ(slab.data(), base);
  ByteReader r{BytesView(slab)};
  EXPECT_EQ(r.u32(), 42u);
  EXPECT_EQ(r.str(), "hi");
}

// --- Bytes (owned-or-borrowed) ------------------------------------------

TEST(BytesTest, BorrowDoesNotCopyAndCopyOfDoes) {
  Buffer src{1, 2, 3};
  Bytes b = Bytes::borrow(BytesView(src));
  EXPECT_FALSE(b.owned());
  EXPECT_EQ(b.data(), src.data());

  Bytes c = Bytes::copy_of(BytesView(src));
  EXPECT_TRUE(c.owned());
  EXPECT_NE(c.data(), src.data());
  EXPECT_EQ(b, c);
}

TEST(BytesTest, CopyOfBorrowedStaysBorrowedCopyOfOwnedReowns) {
  Buffer src{9, 8, 7};
  Bytes borrowed = Bytes::borrow(BytesView(src));
  Bytes b2 = borrowed;  // copy of a view is still a view
  EXPECT_FALSE(b2.owned());
  EXPECT_EQ(b2.data(), src.data());

  Bytes owned = Buffer{5, 5};
  Bytes o2 = owned;  // copy of owned bytes owns its own storage
  EXPECT_TRUE(o2.owned());
  EXPECT_NE(o2.data(), owned.data());
  EXPECT_EQ(o2, owned);
}

TEST(BytesTest, MaterializeDetachesFromSource) {
  Buffer src{1, 2, 3};
  Bytes b = Bytes::borrow(BytesView(src));
  b.materialize();
  src.assign({0xFF, 0xFF, 0xFF});  // mutate the old source
  EXPECT_TRUE(b.owned());
  EXPECT_EQ(b, (Bytes{1, 2, 3}));
}

TEST(BytesTest, MoveFromOwnedTransfersStorage) {
  Bytes a = Buffer{1, 2, 3};
  const uint8_t* p = a.data();
  Bytes b = std::move(a);
  EXPECT_TRUE(b.owned());
  EXPECT_EQ(b.data(), p);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): cleared
}

// --- FramePool / SharedFrame --------------------------------------------

TEST(FramePoolTest, ReuseAfterReleaseHasNoStaleBytes) {
  FramePool pool(/*slab_reserve=*/64, /*max_free=*/4);
  const uint8_t* first_storage = nullptr;
  {
    FrameLease lease = pool.acquire();
    lease.buffer().assign({0xDE, 0xAD, 0xBE, 0xEF});
    first_storage = lease.buffer().data();
    SharedFrame f = std::move(lease).freeze();
    EXPECT_EQ(f.size(), 4u);
  }  // last reference dropped -> slab back to freelist

  FrameLease again = pool.acquire();
  // Same storage came back (pool hit), but emptied: stale frame bytes
  // must never leak into the next checkout.
  EXPECT_EQ(again.buffer().data(), first_storage);
  EXPECT_TRUE(again.buffer().empty());
  EXPECT_GE(again.buffer().capacity(), 4u);

  FramePool::Stats s = pool.stats();
  EXPECT_EQ(s.checkouts, 2u);
  EXPECT_EQ(s.pool_hits, 1u);
  EXPECT_EQ(s.slab_allocs, 1u);
}

TEST(FramePoolTest, RecycledReceiveSlabExposesOnlyNewBytes) {
  FramePool pool(/*slab_reserve=*/64, /*max_free=*/4);
  constexpr size_t kLen = 1024;
  const uint8_t* storage = nullptr;
  {
    // A long datagram fills most of a full-length receive slab.
    FrameLease lease = pool.acquire_recv(kLen);
    ASSERT_EQ(lease.buffer().size(), kLen);
    storage = lease.buffer().data();
    std::fill_n(lease.buffer().begin(), 1000, uint8_t{0xAA});
    SharedFrame f = std::move(lease).freeze_prefix(1000);
    EXPECT_EQ(f.size(), 1000u);
  }
  {
    // Recycled for a shorter one: the slab kept its length (no refill),
    // yet the frame is exactly the five new bytes.
    FrameLease lease = pool.acquire_recv(kLen);
    EXPECT_EQ(lease.buffer().data(), storage);
    ASSERT_EQ(lease.buffer().size(), kLen);
    const Buffer datagram = {1, 2, 3, 4, 5};
    std::copy(datagram.begin(), datagram.end(), lease.buffer().begin());
    SharedFrame f = std::move(lease).freeze_prefix(datagram.size());
    ASSERT_EQ(f.size(), datagram.size());
    EXPECT_TRUE(std::equal(datagram.begin(), datagram.end(),
                           f.view().begin(), f.view().end()));
  }
  {
    // A payload window behind a kernel header hides the header and
    // every byte past the payload.
    FrameLease lease = pool.acquire_recv(kLen);
    lease.buffer()[8] = 9;
    lease.buffer()[9] = 8;
    SharedFrame f = std::move(lease).freeze_payload(8, 2);
    ASSERT_EQ(f.size(), 2u);
    EXPECT_EQ(f.view().data(), storage + 8);
    EXPECT_EQ(f.view()[0], 9);
    EXPECT_EQ(f.view()[1], 8);
  }
  // A builder checking out the same slab still starts from nothing.
  FrameLease builder = pool.acquire();
  EXPECT_EQ(builder.buffer().data(), storage);
  EXPECT_TRUE(builder.buffer().empty());
  EXPECT_GE(builder.buffer().capacity(), kLen);

  FramePool::Stats s = pool.stats();
  EXPECT_EQ(s.checkouts, 4u);
  EXPECT_EQ(s.pool_hits, 3u);
  EXPECT_EQ(s.slab_allocs, 1u);
}

TEST(FramePoolTest, SharedFrameFanOutSharesOneSlab) {
  FramePool pool;
  FrameLease lease = pool.acquire();
  lease.buffer().assign({1, 2, 3});
  SharedFrame f = std::move(lease).freeze();

  // Eight destinations, one slab: every copy views the same storage.
  std::vector<SharedFrame> fanout(8, f);
  for (const SharedFrame& dest : fanout) {
    EXPECT_EQ(dest.view().data(), f.view().data());
  }
  EXPECT_EQ(pool.stats().slab_allocs, 1u);

  // Dropping all but one reference must not recycle the slab.
  fanout.clear();
  EXPECT_EQ(f.view().size(), 3u);
  EXPECT_EQ(f.view()[2], 3);
}

TEST(FramePoolTest, DroppedLeaseReturnsSlabUnused) {
  FramePool pool;
  { FrameLease lease = pool.acquire(); }  // never frozen
  FrameLease again = pool.acquire();
  FramePool::Stats s = pool.stats();
  EXPECT_EQ(s.pool_hits, 1u);
  EXPECT_EQ(s.slab_allocs, 1u);
  (void)again;
}

TEST(FramePoolTest, FrameOutlivesPool) {
  SharedFrame survivor;
  {
    FramePool pool;
    FrameLease lease = pool.acquire();
    lease.buffer().assign({7, 7, 7});
    survivor = std::move(lease).freeze();
  }  // pool destroyed with the frame still alive
  EXPECT_EQ(survivor.size(), 3u);
  EXPECT_EQ(survivor.view()[0], 7);
  survivor.reset();  // releases cleanly even though the pool is gone
}

TEST(FramePoolTest, FreelistCapFreesExcessSlabs) {
  FramePool pool(/*slab_reserve=*/32, /*max_free=*/2);
  std::vector<SharedFrame> frames;
  for (int i = 0; i < 5; ++i) {
    FrameLease lease = pool.acquire();
    lease.buffer().assign({static_cast<uint8_t>(i)});
    frames.push_back(std::move(lease).freeze());
  }
  frames.clear();  // 5 released, freelist keeps at most 2
  for (int i = 0; i < 5; ++i) {
    frames.push_back(std::move(pool.acquire()).freeze());
  }
  FramePool::Stats s = pool.stats();
  EXPECT_EQ(s.checkouts, 10u);
  EXPECT_EQ(s.pool_hits, 2u);  // only the capped freelist could serve hits
  EXPECT_EQ(s.slab_allocs, 8u);
}

// --- FrameBuilder: in-place framing over a pooled slab ------------------

TEST(FrameBuilderTest, SealedFrameMatchesLegacySealFrame) {
  proto::FrameHeader h;
  h.type = proto::MsgType::kVarSample;
  h.source = 0x12345678;

  // Legacy path: serialize payload, then copy into a framed buffer.
  ByteWriter payload;
  payload.str("sample-payload");
  Buffer legacy = proto::seal_frame(h, payload.view());

  // Zero-copy path: serialize straight into the pooled frame.
  FramePool pool;
  proto::FrameBuilder fb(pool, h);
  fb.payload().str("sample-payload");
  SharedFrame frame = std::move(fb).seal();

  ASSERT_EQ(frame.size(), legacy.size());
  EXPECT_EQ(std::memcmp(frame.view().data(), legacy.data(), legacy.size()),
            0);

  // And it still parses + verifies.
  BytesView body;
  auto parsed = proto::open_frame(frame.view(), &body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().type, proto::MsgType::kVarSample);
  EXPECT_EQ(parsed.value().source, 0x12345678u);
}

}  // namespace
}  // namespace marea
