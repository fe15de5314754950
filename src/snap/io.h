/**
 * @file
 * Symmetric byte archive for warm-state snapshots.
 *
 * One snapState(Io &) method per component describes its semantic
 * state once; the same code path serialises it on capture and writes
 * it back on restore, so the two directions cannot drift apart.
 *
 * The archive distinguishes *semantic* state (values that are copied:
 * clocks, counters, RNG streams, queue contents) from *structural*
 * state (host-side objects that must already exist and match: parked
 * coroutine frames, registered handlers, track registrations).
 * Structural facts are recorded with check(), which stores the value
 * on capture and fails fast on restore when the target instance does
 * not line up -- restoring into a structurally different instance is
 * a usage error, not a silent corruption.
 *
 * Snapshots are position-independent in-memory images: they contain
 * no host pointers except trace-span name literals (which outlive the
 * process image), so they may be restored into the captured instance
 * any number of times, from any host thread. They are not a durable
 * on-disk format.
 *
 * Delta restore. Every Io carries the process-unique id of the image
 * it writes or reads (image()). A component holding bulk state (the
 * buddy allocator's page metadata, a disk's blocks) remembers the id
 * it last synced with -- captured into or restored from -- and tracks
 * what it wrote since. Restoring that same image then rewrites only
 * the written parts, reading them out of the image's region through
 * take(); restoring any other image rewrites everything. Either way
 * the image bytes, and the restored state, are the same.
 */

#ifndef K2_SNAP_IO_H
#define K2_SNAP_IO_H

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/log.h"

namespace k2 {
namespace snap {

class Io
{
  public:
    enum class Mode
    {
        Capture, //!< Append the component's state to the byte image.
        Restore, //!< Write the byte image back into the component.
    };

    /** Capture constructor: appends image @p image's bytes to @p out. */
    Io(std::vector<std::uint8_t> &out, std::uint64_t image)
        : mode_(Mode::Capture), image_(image), out_(&out)
    {}

    /** Restore constructor: reads image @p image's bytes from @p in. */
    Io(const std::vector<std::uint8_t> &in, std::uint64_t image)
        : mode_(Mode::Restore), image_(image), rd_(in.data()),
          end_(in.data() + in.size())
    {}

    Io(const Io &) = delete;
    Io &operator=(const Io &) = delete;

    Mode mode() const { return mode_; }
    bool capturing() const { return mode_ == Mode::Capture; }
    bool restoring() const { return mode_ == Mode::Restore; }

    /** Process-unique id of the image being written or read (never 0,
     *  so 0 can stand for "synced with no image"). */
    std::uint64_t image() const { return image_; }

    /** Raw bytes, fixed length both ways. */
    void
    bytes(void *p, std::size_t n)
    {
        if (capturing()) {
            const auto *b = static_cast<const std::uint8_t *>(p);
            out_->insert(out_->end(), b, b + n);
        } else {
            std::memcpy(p, take(n), n);
        }
    }

    /** A trivially copyable value. */
    template <typename T>
    void
    pod(T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "pod() requires a trivially copyable type");
        // A type with its own snapState streams itself: copying it
        // whole could carry indeterminate padding bytes into the image.
        static_assert(!requires(T &t, Io &io) { t.snapState(io); },
                      "pod() of a type with snapState(); call that");
        bytes(&v, sizeof(T));
    }

    /**
     * A size prefix: capture stores @p n and returns it; restore
     * ignores @p n and returns the stored value. Callers resize their
     * container to the returned count before streaming elements.
     */
    std::uint64_t
    count(std::uint64_t n)
    {
        pod(n);
        return n;
    }

    /**
     * A structural invariant: capture records @p v; restore fails fast
     * when the target instance disagrees. Use for waiter counts,
     * element counts of structures that must already exist, ids.
     */
    void
    check(std::uint64_t v, const char *what)
    {
        std::uint64_t stored = v;
        pod(stored);
        if (restoring() && stored != v) {
            K2_FATAL("snapshot restore: structural mismatch on %s "
                     "(snapshot %llu, instance %llu)",
                     what, static_cast<unsigned long long>(stored),
                     static_cast<unsigned long long>(v));
        }
    }

    void
    str(std::string &s)
    {
        std::uint64_t n = count(s.size());
        if (restoring())
            s.resize(static_cast<std::size_t>(n));
        if (n > 0)
            bytes(s.data(), static_cast<std::size_t>(n));
    }

    /**
     * The keys of a grow-only map (entries are instantiated on first
     * use and never erased), in ascending order. Capture stores them;
     * restore erases the entries instantiated after the capture point
     * and returns the stored keys, whose entries the caller streams.
     */
    template <typename Map>
    std::vector<typename Map::key_type>
    keys(Map &m)
    {
        // Ascending: hash maps iterate in an order that would make
        // snapshots irreproducible.
        std::vector<typename Map::key_type> ks;
        ks.reserve(m.size());
        for (const auto &kv : m)
            ks.push_back(kv.first);
        std::sort(ks.begin(), ks.end());
        std::vector<typename Map::key_type> stored(
            static_cast<std::size_t>(count(ks.size())));
        if (capturing())
            stored = ks;
        for (auto &k : stored)
            pod(k);
        if (restoring()) {
            for (const auto &k : ks) {
                if (!std::binary_search(stored.begin(), stored.end(), k))
                    m.erase(k);
            }
        }
        return stored;
    }

    /**
     * Restore only: lend the next @p n image bytes and step past them,
     * so a component can read its own region out of order (or only the
     * parts it needs). The pointer lives as long as the image.
     */
    const std::uint8_t *
    take(std::size_t n)
    {
        K2_ASSERT(restoring());
        need(n);
        const std::uint8_t *p = rd_;
        rd_ += n;
        return p;
    }

    template <typename T>
    void
    podVec(std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        std::uint64_t n = count(v.size());
        if (restoring())
            v.resize(static_cast<std::size_t>(n));
        if (n > 0)
            bytes(v.data(), static_cast<std::size_t>(n) * sizeof(T));
    }

    template <typename T>
    void
    podDeque(std::deque<T> &d)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        std::uint64_t n = count(d.size());
        if (restoring()) {
            d.clear();
            d.resize(static_cast<std::size_t>(n));
        }
        for (auto &e : d)
            pod(e);
    }

    /** Restore epilogue: the image must be consumed exactly. */
    void
    finish() const
    {
        if (restoring() && rd_ != end_) {
            K2_FATAL("snapshot restore: %llu trailing bytes "
                     "(layout mismatch between capture and restore)",
                     static_cast<unsigned long long>(end_ - rd_));
        }
    }

  private:
    void
    need(std::size_t n) const
    {
        if (static_cast<std::size_t>(end_ - rd_) < n)
            K2_FATAL("snapshot restore: image truncated");
    }

    Mode mode_;
    std::uint64_t image_;
    std::vector<std::uint8_t> *out_ = nullptr;
    const std::uint8_t *rd_ = nullptr;
    const std::uint8_t *end_ = nullptr;
};

} // namespace snap
} // namespace k2

#endif // K2_SNAP_IO_H
