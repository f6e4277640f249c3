/**
 * @file
 * MsgChannel SeqWindow tests: receive-side sequence dedup must run in
 * bounded memory. The window accepts fresh in-window sequences,
 * classifies replays as duplicates (including everything it already
 * slid past), rejects beyond-window sequences without recording them,
 * and slides over the contiguous accepted prefix so an in-order
 * sender never stalls. The end-to-end transferImage path keeps
 * delivering byte-identical images with the window in place, with
 * hostile far-future sequence numbers counted and discarded.
 */

#include <gtest/gtest.h>

#include "migrate/msg_channel.h"

namespace hpmp
{
namespace
{

TEST(SeqWindowTest, InOrderStreamAcceptsAndSlides)
{
    SeqWindow w(4);
    for (uint64_t seq = 0; seq < 100; ++seq) {
        EXPECT_EQ(w.accept(seq), SeqWindow::Verdict::Accept) << seq;
        EXPECT_EQ(w.base(), seq + 1);
        EXPECT_TRUE(w.seen(seq));
    }
}

TEST(SeqWindowTest, DuplicatesInsideAndBelowTheWindow)
{
    SeqWindow w(8);
    EXPECT_EQ(w.accept(0), SeqWindow::Verdict::Accept);
    EXPECT_EQ(w.accept(2), SeqWindow::Verdict::Accept);
    // 2 is still in the window (1 is the hole); a replay is a dup.
    EXPECT_EQ(w.accept(2), SeqWindow::Verdict::Duplicate);
    // Fill the hole; the window slides past all three.
    EXPECT_EQ(w.accept(1), SeqWindow::Verdict::Accept);
    EXPECT_EQ(w.base(), 3u);
    // Anything below base is a duplicate by construction.
    EXPECT_EQ(w.accept(0), SeqWindow::Verdict::Duplicate);
    EXPECT_EQ(w.accept(2), SeqWindow::Verdict::Duplicate);
    EXPECT_TRUE(w.seen(0));
}

TEST(SeqWindowTest, BeyondWindowRejectedAndNotRecorded)
{
    SeqWindow w(4);
    // Window is [0, 4): seq 4 is out, no matter how often it's sent.
    EXPECT_EQ(w.accept(4), SeqWindow::Verdict::BeyondWindow);
    EXPECT_EQ(w.accept(1000), SeqWindow::Verdict::BeyondWindow);
    EXPECT_FALSE(w.seen(4));
    EXPECT_EQ(w.base(), 0u);
    // Once the window slides, the same sequence becomes acceptable —
    // the earlier rejection left no state behind.
    EXPECT_EQ(w.accept(0), SeqWindow::Verdict::Accept);
    EXPECT_EQ(w.accept(4), SeqWindow::Verdict::Accept);
}

TEST(SeqWindowTest, OutOfOrderWithinWindowAllLand)
{
    SeqWindow w(4);
    EXPECT_EQ(w.accept(3), SeqWindow::Verdict::Accept);
    EXPECT_EQ(w.accept(1), SeqWindow::Verdict::Accept);
    EXPECT_EQ(w.accept(0), SeqWindow::Verdict::Accept);
    EXPECT_EQ(w.base(), 2u); // 0,1 contiguous; 3 still pending 2
    EXPECT_EQ(w.accept(2), SeqWindow::Verdict::Accept);
    EXPECT_EQ(w.base(), 4u);
}

TEST(SeqWindowTest, StateStaysBoundedOverALongStream)
{
    // The dedup state is the ring (capacity bits) + base: pushing a
    // million in-order frames through a tiny window must work, which
    // it can only do by sliding, not by remembering.
    SeqWindow w(2);
    for (uint64_t seq = 0; seq < 1'000'000; ++seq)
        ASSERT_EQ(w.accept(seq), SeqWindow::Verdict::Accept) << seq;
    EXPECT_EQ(w.base(), 1'000'000u);
    EXPECT_EQ(w.capacity(), 2u);
}

TEST(SeqWindowTest, ResetForgetsEverything)
{
    SeqWindow w(4);
    EXPECT_EQ(w.accept(0), SeqWindow::Verdict::Accept);
    EXPECT_EQ(w.accept(1), SeqWindow::Verdict::Accept);
    w.reset();
    EXPECT_EQ(w.base(), 0u);
    EXPECT_EQ(w.accept(0), SeqWindow::Verdict::Accept);
}

TEST(SeqWindowTest, ZeroCapacityClampsToOne)
{
    // A zero-size window would divide by zero; it clamps to a
    // stop-and-wait window of one frame.
    SeqWindow w(0);
    EXPECT_EQ(w.capacity(), 1u);
    EXPECT_EQ(w.accept(1), SeqWindow::Verdict::BeyondWindow);
    EXPECT_EQ(w.accept(0), SeqWindow::Verdict::Accept);
    EXPECT_EQ(w.accept(1), SeqWindow::Verdict::Accept);
}

TEST(MsgChannelTest, DuplicatedFramesDedupThroughTheWindow)
{
    // The channel itself can double-deliver (migrate.frame_dup); a
    // windowed receiver sees the clone as Duplicate, not a second
    // payload.
    MsgChannel ch;
    MsgFrame f;
    f.seq = 0;
    f.totalFrames = 1;
    f.payload = {1, 2, 3};
    ch.send(f);
    ch.send(f); // manual duplicate

    SeqWindow w(4);
    unsigned accepted = 0, dups = 0;
    MsgFrame rx;
    while (ch.recv(rx)) {
        ASSERT_TRUE(MsgChannel::valid(rx));
        switch (w.accept(rx.seq)) {
          case SeqWindow::Verdict::Accept:
            ++accepted;
            break;
          case SeqWindow::Verdict::Duplicate:
            ++dups;
            break;
          case SeqWindow::Verdict::BeyondWindow:
            FAIL() << "in-window frame rejected";
        }
    }
    EXPECT_EQ(accepted, 1u);
    EXPECT_EQ(dups, 1u);
}

TEST(MsgChannelTest, ChecksumGolden)
{
    // Recorded from the byte-serial checksum; the word-at-a-time one
    // must match it. The payload mixes zero and non-zero 8-byte words
    // and ends in a partial word.
    MsgFrame f;
    f.seq = 3;
    f.totalFrames = 17;
    f.payload.assign(101, 0);
    for (size_t i = 0; i < f.payload.size(); i += 13)
        f.payload[i] = uint8_t(0x30 + i);
    f.payload[100] = 0xee;
    EXPECT_EQ(MsgChannel::checksumOf(f), 0x0064dfc99d2c346bULL);

    // The checksum covers the header words too.
    MsgFrame other = f;
    other.seq = 4;
    EXPECT_NE(MsgChannel::checksumOf(other), MsgChannel::checksumOf(f));
}

} // namespace
} // namespace hpmp
