/**
 * @file
 * FlatMap: the open-addressed hash table behind the simulator's
 * integer-keyed miss and bookkeeping tables (MSHRs, TLB and GMMU
 * waiters, outstanding requests, RDMA reassembly, the controller's
 * holding area, page ownership).
 *
 * Entries live in one flat slot array with linear probing, a
 * power-of-two capacity and backward-shift deletion (no tombstones), so
 * a lookup touches one or two cache lines and insert/erase never
 * allocate once the array has grown to the table's high-water mark: it
 * only grows, by doubling, when the load factor would pass 3/4.
 *
 * Slot order is hash order, so the table offers no iteration: no result
 * may depend on it. Pointers returned by find() and tryEmplace() stay
 * valid only until the next insert or erase.
 */

#ifndef NETCRAFTER_SIM_FLAT_MAP_HH
#define NETCRAFTER_SIM_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace netcrafter::sim {

/** Open-addressed map from an integer key to a default-constructible value. */
template <typename Key, typename Value>
class FlatMap
{
    static_assert(std::is_integral_v<Key>, "FlatMap keys are integers");

  public:
    std::size_t size() const { return size_; }

    /** The value stored for @p key, or nullptr. */
    Value *
    find(Key key)
    {
        if (size_ == 0)
            return nullptr;
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (!s.used)
                return nullptr;
            if (s.key == key)
                return &s.value;
        }
    }

    const Value *
    find(Key key) const
    {
        return const_cast<FlatMap *>(this)->find(key);
    }

    bool contains(Key key) const { return find(key) != nullptr; }

    /**
     * The value for @p key, default-constructing it when absent. The
     * flag is true when the entry was inserted by this call.
     */
    std::pair<Value *, bool>
    tryEmplace(Key key)
    {
        if ((size_ + 1) * 4 > slots_.size() * 3)
            rehash(slots_.empty() ? kMinSlots : slots_.size() * 2);
        std::size_t i = home(key);
        for (;; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (!s.used)
                break;
            if (s.key == key)
                return {&s.value, false};
        }
        Slot &s = slots_[i];
        s.used = true;
        s.key = key;
        ++size_;
        return {&s.value, true};
    }

    /** The value for @p key, default-constructed on first use. */
    Value &operator[](Key key) { return *tryEmplace(key).first; }

    /** Remove @p key; returns false when it was absent. */
    bool
    erase(Key key)
    {
        if (size_ == 0)
            return false;
        std::size_t i = home(key);
        for (;; i = (i + 1) & mask_) {
            if (!slots_[i].used)
                return false;
            if (slots_[i].key == key)
                break;
        }
        // Backward-shift deletion: pull every later member of the probe
        // run whose home does not lie in (hole, j] into the hole, so
        // lookups never need tombstones.
        std::size_t hole = i;
        for (std::size_t j = (i + 1) & mask_; slots_[j].used;
             j = (j + 1) & mask_) {
            const std::size_t h = home(slots_[j].key);
            const bool stays = hole <= j ? (hole < h && h <= j)
                                         : (hole < h || h <= j);
            if (stays)
                continue;
            slots_[hole].key = slots_[j].key;
            slots_[hole].value = std::move(slots_[j].value);
            hole = j;
        }
        slots_[hole].used = false;
        slots_[hole].value = Value();
        --size_;
        return true;
    }

  private:
    static constexpr std::size_t kMinSlots = 8;

    struct Slot
    {
        Key key{};
        bool used = false;
        Value value{};
    };

    /** Fibonacci hashing: the top bits of key * 2^64/phi. */
    std::size_t
    home(Key key) const
    {
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull) >>
            shift_);
    }

    void
    rehash(std::size_t cap)
    {
        std::vector<Slot> old(cap);
        old.swap(slots_);
        mask_ = cap - 1;
        shift_ = 64;
        for (std::size_t c = cap; c > 1; c >>= 1)
            --shift_;
        size_ = 0;
        for (Slot &s : old) {
            if (s.used)
                *tryEmplace(s.key).first = std::move(s.value);
        }
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
    std::size_t size_ = 0;
};

} // namespace netcrafter::sim

#endif // NETCRAFTER_SIM_FLAT_MAP_HH
