/**
 * @file
 * The copy-state rules of the invalidation protocols (two-state, MSI,
 * MESI, MOESI).
 *
 * Every kernel's copy of a page is in one MOESI state; each protocol
 * uses a subset. The paper's two-state scheme knows only M (its
 * "Valid") and I, MSI adds read-shared S, MESI adds clean-exclusive E
 * (a write through E upgrades silently, no messages), and MOESI adds
 * owned-dirty O (a read of a Modified page leaves the holder O and
 * forwards the data cache-to-cache instead of writing it back).
 *
 * Directory holds no per-page storage: a page's copy states (Copies)
 * live in its os::Dsm page record, and Directory is the transition
 * rules over them -- every copy-state write (local write, serve,
 * completion, reclaim) is one of its rules; timing, mail and task
 * structure stay with os::Dsm.
 * Pages are born owned by kernel 0 (the main kernel on the strong
 * domain): M under the two/three-state protocols, clean E under
 * MESI/MOESI.
 */

#ifndef K2_OS_COHERENCE_DIRECTORY_H
#define K2_OS_COHERENCE_DIRECTORY_H

#include <array>

#include "os/coherence/protocol.h"
#include "os/system.h"

namespace k2 {
namespace os {
namespace coherence {

/** One kernel's copy of a page. */
enum class Copy : std::uint8_t { I, S, E, O, M };

/** Copy states of one page, indexed by kernel (the first n live). */
using Copies = std::array<Copy, kMaxKernels>;

class Directory
{
  public:
    Directory(ProtocolKind kind, std::size_t num_kernels);

    static std::uint32_t bit(std::size_t k)
    {
        return 1u << static_cast<std::uint32_t>(k);
    }

    /** True if a copy in state @p s serves @p rw without a fault. E
     *  serves writes (silent E->M); O is shared, so it does not. */
    static bool permits(Copy s, Access rw)
    {
        return rw == Access::Read ? s != Copy::I
                                  : s == Copy::M || s == Copy::E;
    }

    /** True if @p s holds data newer than memory. */
    static bool dirty(Copy s) { return s == Copy::M || s == Copy::O; }

    /** A new page's copy states. */
    Copies born() const;

    /** The holder of the page's M/E/O copy, or the lowest-index
     *  holder, or kernel 0 if no copy is valid anywhere. */
    std::size_t ownerOf(const Copies &e) const;

    /**
     * The kernels a fault of @p k asks (bitmap). An exclusive request
     * asks every other holder, so each invalidates its copy; a read
     * asks one: the M/E/O holder, else the lowest-index sharer. A page
     * no other kernel holds (in flight to the peer, or orphaned by a
     * crash) is asked of kernel 0, or of kernel 1 if @p k is 0. With
     * two kernels the answer is always the peer.
     */
    std::uint32_t targets(const Copies &e, std::size_t k,
                          bool exclusive) const;

    /** A local write through @p k's copy, which permits it: E
     *  upgrades silently to M (no messages, no cost). */
    static void write(Copies &e, std::size_t k)
    {
        if (e[k] == Copy::E)
            e[k] = Copy::M;
    }

    /**
     * Serve a request at holder @p t. An exclusive request invalidates
     * @p t's copy and grants X. A read downgrades it: M drops to S
     * (MOESI: O); E drops to S; S, O and I keep their state. A read
     * grants E when no copy was valid at @p t (the requester will hold
     * the only one, except under MSI, which has no E), else S.
     */
    RepOp serve(Copies &e, std::size_t t, bool exclusive) const;

    /** The copy state a grant gives its requester. */
    static Copy granted(RepOp op);

    /** Complete @p k's fault with the copy state it was granted: an
     *  exclusive fault ends M whatever its grants said. */
    static void complete(Copies &e, std::size_t k, bool exclusive,
                         Copy grant)
    {
        e[k] = exclusive ? Copy::M : grant;
    }

    /**
     * Crash recovery of one page: @p dead loses its copy. Unless the
     * page lives on with a third kernel (@p elsewhere), @p to becomes
     * its sole holder -- M if it was M, else E under MESI/MOESI and M
     * under the two/three-state protocols. Returns true if a copy
     * state changed.
     */
    bool reclaim(Copies &e, std::size_t dead, std::size_t to,
                 bool elsewhere) const;

  private:
    ProtocolKind kind_;
    std::size_t n_;
};

} // namespace coherence
} // namespace os
} // namespace k2

#endif // K2_OS_COHERENCE_DIRECTORY_H
