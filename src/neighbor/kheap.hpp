/**
 * @file
 * Fixed-capacity max-heap of the k smallest (distance, index) pairs,
 * backed by caller-provided storage (typically a ScratchArena span).
 *
 * Replaces the per-query std::vector heaps in the neighbor searchers so
 * steady-state queries perform zero heap allocations. Each entry packs
 * the distance bits and the candidate index into one 64-bit key
 * (squared distances are non-negative, so their IEEE-754 bits order
 * like the floats), making every sift comparison a single integer
 * compare. Admission keeps the original semantics: strict `<` on the
 * distance alone against the current k-th distance, so on distance
 * ties the first-encountered candidate wins regardless of index.
 */

#ifndef EDGEPC_NEIGHBOR_KHEAP_HPP
#define EDGEPC_NEIGHBOR_KHEAP_HPP

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "geometry/simd_distance.hpp"

namespace edgepc {

/**
 * Bounded selector over borrowed storage keeping the k smallest
 * entries. Internally an unsorted array with a cached maximum rather
 * than a binary heap: k is small (tens), so an eviction is one store
 * plus a k-element max rescan of packed integer keys — cheaper than
 * two heap sifts — and the non-evicting admission test is a single
 * compare against the cached worst. Evictions remove the largest
 * (distance, index) key, exactly like the max-heap of pairs this
 * replaces, so results are bit-identical.
 */
class KHeap
{
  public:
    /** Packed (distance bits << 32) | candidate index. */
    using Key = std::uint64_t;

    static Key pack(float dist, std::uint32_t idx)
    {
        return (static_cast<Key>(std::bit_cast<std::uint32_t>(dist))
                << 32) |
               idx;
    }
    static float distOf(Key key)
    {
        return std::bit_cast<float>(
            static_cast<std::uint32_t>(key >> 32));
    }
    static std::uint32_t indexOf(Key key)
    {
        return static_cast<std::uint32_t>(key);
    }

    /** @p storage must hold at least the heap capacity k. */
    explicit KHeap(std::span<Key> storage)
        : data(storage.data()), cap(storage.size())
    {
    }

    std::size_t size() const { return count; }
    bool full() const { return count == cap; }

    /** Current k-th smallest distance; only valid when full(). */
    float worst() const { return distOf(worstKey); }

    void push(float dist, std::uint32_t idx)
    {
        if (count < cap) {
            const Key key = pack(dist, idx);
            if (count == 0 || key > worstKey) {
                worstKey = key;
                worstSlot = count;
            }
            data[count] = key;
            ++count;
        } else if (dist < worst()) {
            // Strict compare on the distance alone: an equal distance
            // never evicts, keeping first-encountered ties.
            evict(pack(dist, idx));
        }
    }

    /** Sort ascending by (distance, index) and return the keys. */
    std::span<const Key> finish()
    {
        std::sort(data, data + count);
        return {data, count};
    }

  private:
    /** Replace the current worst and rescan for the new one. Kept out
     *  of line so the non-evicting fast path of push() stays small
     *  enough to inline into the scan loops. */
    __attribute__((noinline)) void evict(Key key)
    {
        data[worstSlot] = key;
        Key w = data[0];
        std::size_t slot = 0;
        for (std::size_t i = 1; i < count; ++i) {
            const bool greater = data[i] > w;
            w = greater ? data[i] : w;
            slot = greater ? i : slot;
        }
        worstKey = w;
        worstSlot = slot;
    }

    Key *data;
    std::size_t cap;
    std::size_t count = 0;
    Key worstKey = 0;
    std::size_t worstSlot = 0;
};

/// Candidates are masked against the current k-th distance in blocks
/// of this many precomputed distances before touching the heap; the
/// usual chunk argument of admitMasked.
inline constexpr std::size_t kAdmitMaskChunk = 256;

/**
 * Admit a precomputed distance buffer into @p heap in index order,
 * prefiltering each @p chunk with batchBelowMask against the (possibly
 * stale) k-th distance. The threshold only shrinks as entries are
 * admitted, so the packed mask is a superset of the admissible
 * candidates and the exact strict `<` re-check on every set bit keeps
 * the result identical to a plain scalar scan. @p mask must hold
 * simd::maskWords(chunk) words; @p indexOf maps a buffer position to
 * the candidate index stored in the heap.
 */
template <typename IndexFn>
inline void
admitMasked(KHeap &heap, const float *dist, std::size_t n,
            std::uint64_t *mask, std::size_t chunk, IndexFn &&indexOf)
{
    std::size_t c = 0;
    for (; c < n && !heap.full(); ++c) {
        heap.push(dist[c], indexOf(c));
    }
    // Warm chunk: right after the fill the k-th distance is still so
    // loose that a mask would select nearly every lane, so stream it
    // with a plain float compare instead.
    const std::size_t warm = std::min(n, chunk);
    float worst = heap.worst();
    for (; c < warm; ++c) {
        if (dist[c] < worst) {
            heap.push(dist[c], indexOf(c));
            worst = heap.worst();
        }
    }
    while (c < n) {
        const std::size_t len = std::min(chunk, n - c);
        const std::size_t hits =
            simd::batchBelowMask(dist + c, len, worst, mask);
        if (hits != 0) {
            const std::size_t words = simd::maskWords(len);
            for (std::size_t w = 0; w < words; ++w) {
                std::uint64_t bits = mask[w];
                while (bits != 0) {
                    const std::size_t i =
                        c + w * 64 +
                        static_cast<std::size_t>(std::countr_zero(bits));
                    bits &= bits - 1;
                    if (dist[i] < worst) {
                        heap.push(dist[i], indexOf(i));
                        worst = heap.worst();
                    }
                }
            }
        }
        c += len;
    }
}

} // namespace edgepc

#endif // EDGEPC_NEIGHBOR_KHEAP_HPP
