#include "migrate/msg_channel.h"

#include "base/fault_inject.h"
#include "base/hash.h"

namespace hpmp
{

uint64_t
MsgChannel::checksumOf(const MsgFrame &frame)
{
    const uint64_t header =
        fnvFold(fnvFold(kFnvBasis, frame.seq), frame.totalFrames);
    return fnvBytes(frame.payload.data(), frame.payload.size(), header);
}

bool
MsgChannel::valid(const MsgFrame &frame)
{
    return frame.checksum == checksumOf(frame);
}

void
MsgChannel::send(const MsgFrame &frame)
{
    ++framesSent_;
    if (FAULT_POINT("migrate.frame_drop")) {
        ++framesDropped_;
        return;
    }

    MsgFrame f = frame;
    f.checksum = checksumOf(f);
    if (FAULT_POINT("migrate.frame_corrupt")) {
        ++framesCorrupted_;
        // Deterministic in-flight bit flip; the stamped checksum no
        // longer matches, so valid() rejects the frame on receive.
        if (!f.payload.empty())
            f.payload[size_t(f.seq % f.payload.size())] ^= 0x10;
        else
            f.checksum ^= 1;
    }
    queue_.push_back(f);
    if (FAULT_POINT("migrate.frame_dup")) {
        ++framesDuplicated_;
        queue_.push_back(f);
    }
}

bool
MsgChannel::recv(MsgFrame &out)
{
    if (queue_.empty())
        return false;
    out = std::move(queue_.front());
    queue_.pop_front();
    return true;
}

} // namespace hpmp
