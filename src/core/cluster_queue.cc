#include "src/core/cluster_queue.hh"

#include <algorithm>

#include "src/sim/logging.hh"

namespace netcrafter::core {

ClusterQueue::ClusterQueue(std::size_t total_entries,
                           std::vector<ClusterId> dst_clusters)
    : budgetPerDst_(dst_clusters.empty()
                        ? total_entries
                        : total_entries / dst_clusters.size())
{
    NC_ASSERT(!dst_clusters.empty(), "cluster queue needs destinations");
    NC_ASSERT(budgetPerDst_ > 0, "cluster queue budget too small");
    for (ClusterId dst : dst_clusters) {
        DstQueues dq;
        dq.dst = dst;
        dsts_.push_back(std::move(dq));
    }
}

ClusterQueue::DstQueues &
ClusterQueue::queuesFor(ClusterId dst)
{
    for (auto &dq : dsts_) {
        if (dq.dst == dst)
            return dq;
    }
    NC_PANIC("cluster queue has no partition for cluster ", dst);
}

const ClusterQueue::DstQueues &
ClusterQueue::queuesFor(ClusterId dst) const
{
    return const_cast<ClusterQueue *>(this)->queuesFor(dst);
}

bool
ClusterQueue::hasSpace(ClusterId dst) const
{
    return queuesFor(dst).occupancy < budgetPerDst_;
}

void
ClusterQueue::push(ClusterId dst, noc::FlitPtr flit)
{
    DstQueues &dq = queuesFor(dst);
    NC_ASSERT(dq.occupancy < budgetPerDst_, "cluster queue overflow");
    const auto cls =
        static_cast<std::size_t>(cqClassOfPacket(*flit->pkt));

    // Flit Pooling waits for "a suitable stitching candidate to arrive"
    // (Section 4.2): if the newcomer is such a candidate for a pooled
    // partition head, cancel that partition's timer so the stitch
    // happens immediately instead of at window expiry.
    if (flit->stitchable()) {
        const std::uint16_t wire = flit->stitchWireBytes();
        for (std::size_t c = 0; c < kNumCqClasses; ++c) {
            if (dq.q[c].empty() || dq.blockedUntil[c] == 0)
                continue;
            if (dq.q[c].front()->freeBytes() >= wire)
                dq.blockedUntil[c] = 0;
        }
    }

    dq.q[cls].push_back(std::move(flit));
    ++dq.occupancy;
    ++totalOccupancy_;
    maxOccupancy_ = std::max(maxOccupancy_, totalOccupancy_);
}

std::size_t
ClusterQueue::occupancy(ClusterId dst) const
{
    return queuesFor(dst).occupancy;
}

std::optional<CqPartitionId>
ClusterQueue::pickNext(Tick now, bool sequencing)
{
    if (totalOccupancy_ == 0)
        return std::nullopt;

    const std::size_t num_partitions = dsts_.size() * kNumCqClasses;

    if (sequencing) {
        // Strict priority for PTW-related flits; timers never apply.
        for (const auto &dq : dsts_) {
            if (!dq.q[static_cast<std::size_t>(CqClass::Ptw)].empty())
                return CqPartitionId{dq.dst, CqClass::Ptw};
        }
    }

    for (std::size_t step = 0; step < num_partitions; ++step) {
        const std::size_t idx = (rr_ + step) % num_partitions;
        const std::size_t dst_idx = idx / kNumCqClasses;
        const std::size_t cls_idx = idx % kNumCqClasses;
        const DstQueues &dq = dsts_[dst_idx];
        if (dq.q[cls_idx].empty())
            continue;
        if (dq.blockedUntil[cls_idx] > now)
            continue;
        rr_ = (idx + 1) % num_partitions;
        return CqPartitionId{dq.dst,
                             static_cast<CqClass>(cls_idx)};
    }

    // Every non-empty partition is inside a pooling window. Rather than
    // idle the lower-bandwidth link, serve a blocked partition early:
    // pooling timers are soft deadlines, and the deferred head (already
    // marked pooledOnce) is re-evaluated for stitching on ejection.
    for (std::size_t step = 0; step < num_partitions; ++step) {
        const std::size_t idx = (rr_ + step) % num_partitions;
        const std::size_t dst_idx = idx / kNumCqClasses;
        const std::size_t cls_idx = idx % kNumCqClasses;
        const DstQueues &dq = dsts_[dst_idx];
        if (dq.q[cls_idx].empty())
            continue;
        rr_ = (idx + 1) % num_partitions;
        return CqPartitionId{dq.dst,
                             static_cast<CqClass>(cls_idx)};
    }
    return std::nullopt;
}

const noc::FlitPtr &
ClusterQueue::front(CqPartitionId id) const
{
    const auto &q = queuesFor(id.dst).q[static_cast<std::size_t>(id.cls)];
    NC_ASSERT(!q.empty(), "front() on empty CQ partition");
    return q.front();
}

noc::FlitPtr
ClusterQueue::pop(CqPartitionId id)
{
    DstQueues &dq = queuesFor(id.dst);
    auto &q = dq.q[static_cast<std::size_t>(id.cls)];
    NC_ASSERT(!q.empty(), "pop() on empty CQ partition");
    noc::FlitPtr flit = std::move(q.front());
    q.pop_front();
    --dq.occupancy;
    --totalOccupancy_;
    return flit;
}

void
ClusterQueue::blockUntil(CqPartitionId id, Tick until)
{
    queuesFor(id.dst).blockedUntil[static_cast<std::size_t>(id.cls)] =
        until;
}

Tick
ClusterQueue::earliestUnblock(Tick now) const
{
    Tick earliest = kTickNever;
    for (const auto &dq : dsts_) {
        for (std::size_t cls = 0; cls < kNumCqClasses; ++cls) {
            if (dq.q[cls].empty())
                continue;
            if (dq.blockedUntil[cls] > now)
                earliest = std::min(earliest, dq.blockedUntil[cls]);
        }
    }
    return earliest;
}

bool
ClusterQueue::anyOtherServable(CqPartitionId id, Tick now) const
{
    for (const auto &dq : dsts_) {
        for (std::size_t cls = 0; cls < kNumCqClasses; ++cls) {
            if (dq.dst == id.dst &&
                cls == static_cast<std::size_t>(id.cls))
                continue;
            if (!dq.q[cls].empty() && dq.blockedUntil[cls] <= now)
                return true;
        }
    }
    return false;
}

noc::FlitPtr
ClusterQueue::takeCandidate(ClusterId dst, std::uint16_t free_bytes,
                            std::uint32_t search_depth,
                            const noc::Flit *exclude)
{
    DstQueues &dq = queuesFor(dst);
    sim::RingQueue<noc::FlitPtr> *best_q = nullptr;
    std::size_t best_pos = 0;
    std::uint16_t best_bytes = 0;

    for (auto &q : dq.q) {
        std::size_t depth = std::min<std::size_t>(q.size(), search_depth);
        for (std::size_t i = 0; i < depth; ++i) {
            const noc::Flit &f = *q[i];
            if (&f == exclude || !f.stitchable())
                continue;
            const std::uint16_t wire = f.stitchWireBytes();
            if (wire > free_bytes || wire <= best_bytes)
                continue;
            best_q = &q;
            best_pos = i;
            best_bytes = wire;
        }
    }
    if (best_q == nullptr)
        return nullptr;
    noc::FlitPtr flit = std::move((*best_q)[best_pos]);
    best_q->erase(best_pos);
    --dq.occupancy;
    --totalOccupancy_;
    return flit;
}

} // namespace netcrafter::core
