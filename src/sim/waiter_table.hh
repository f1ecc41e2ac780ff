/**
 * @file
 * WaiterTable: per-key FIFO lists of waiting requests, the shape every
 * miss-merging structure shares (MSHRs, TLB and GMMU walk waiters, the
 * NetCrafter controller's per-packet holding area).
 *
 * List heads live in a FlatMap keyed by the miss address; the waiters
 * themselves are nodes of one recycled array linked in arrival order.
 * Merging onto an outstanding key and draining it both run without
 * allocation once the node array reached its high-water mark.
 */

#ifndef NETCRAFTER_SIM_WAITER_TABLE_HH
#define NETCRAFTER_SIM_WAITER_TABLE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "src/sim/flat_map.hh"
#include "src/sim/logging.hh"

namespace netcrafter::sim {

/** Key -> arrival-ordered waiter list. */
template <typename Key, typename Payload>
class WaiterTable
{
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  public:
    /**
     * A key's waiters detached by take(); drain it completely with
     * pop(), which recycles each node as it goes.
     */
    struct Chain
    {
        std::uint32_t head = kNil;
    };

    /** Keys with at least one waiter. */
    std::size_t size() const { return heads_.size(); }

    /** True when @p key has waiters. */
    bool contains(Key key) const { return heads_.contains(key); }

    /** Append @p payload to @p key's list; true when it is the first. */
    bool
    add(Key key, Payload payload)
    {
        const std::uint32_t node = allocNode(std::move(payload));
        auto [list, first] = heads_.tryEmplace(key);
        if (first)
            list->head = node;
        else
            nodes_[list->tail].next = node;
        list->tail = node;
        return first;
    }

    /** Detach @p key's waiters; @p key is no longer contained. */
    Chain
    take(Key key)
    {
        const List *list = heads_.find(key);
        NC_ASSERT(list != nullptr, "waiter list taken without waiters");
        const Chain chain{list->head};
        heads_.erase(key);
        return chain;
    }

    /**
     * Move the next waiter of @p chain into @p out, in arrival order;
     * false once the chain is drained. The node is recycled before the
     * caller acts on @p out, so a waiter may re-enter add().
     */
    bool
    pop(Chain &chain, Payload &out)
    {
        if (chain.head == kNil)
            return false;
        Node &n = nodes_[chain.head];
        out = std::move(n.payload);
        n.payload = Payload();
        const std::uint32_t next = n.next;
        n.next = freeHead_;
        freeHead_ = chain.head;
        chain.head = next;
        return true;
    }

  private:
    struct List
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
    };

    struct Node
    {
        Payload payload{};
        std::uint32_t next = kNil;
    };

    std::uint32_t
    allocNode(Payload payload)
    {
        std::uint32_t node = freeHead_;
        if (node == kNil) {
            node = static_cast<std::uint32_t>(nodes_.size());
            nodes_.emplace_back();
        } else {
            freeHead_ = nodes_[node].next;
        }
        nodes_[node].payload = std::move(payload);
        nodes_[node].next = kNil;
        return node;
    }

    FlatMap<Key, List> heads_;
    std::vector<Node> nodes_;
    std::uint32_t freeHead_ = kNil;
};

} // namespace netcrafter::sim

#endif // NETCRAFTER_SIM_WAITER_TABLE_HH
