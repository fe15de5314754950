/**
 * @file
 * The K2 software distributed shared memory (paper §6.3), for any
 * number of coherence domains (§11).
 *
 * The DSM keeps shadowed-service state coherent between the main
 * (strong-domain) kernel and the shadow (weak-domain) kernels under
 * sequential consistency, maintaining the one-writer invariant at 4 KB
 * page granularity. Kernel 0 is the main kernel; pages are born owned
 * by it.
 *
 * Default protocol: the paper's simple two-state scheme. Each kernel's
 * copy of a page is Valid or Invalid; before touching an Invalid page
 * a kernel sends GetExclusive to the holder and spins (synchronously --
 * interrupt handlers cannot sleep) until PutExclusive arrives; the
 * holder flushes and invalidates the page from its cache before
 * granting. Every protocol of the zoo (coherence::ProtocolKind) runs on
 * one fault path (access: translate, serialise, local check, entry,
 * protocol, ask, await grant, exit, complete, record) and one service
 * path (service: defer, serialise, serve, grant):
 *
 *  - two-state, MSI, MESI, MOESI: per-kernel copy states under
 *    coherence::Directory's rules. A read asks the page's owner, an
 *    exclusive request asks every other holder, and each asked kernel
 *    services and grants straight back -- requests go to the holders,
 *    never broadcast. With two kernels that is always the peer.
 *  - RAC: log-based release-acquire against the page's last writer
 *    (coherence::RacState).
 *
 * Each difference between them is one decision at a named step of
 * that sequence, not a second sequence: the local hit's write (silent
 * E->M upgrade vs owner-write log append), the demotion (none under
 * RAC), the ask's targets and opcode, the RAC log drain, the exit's
 * protection update, the serve's cost and grant, and the completion
 * rule. The rules own every state change: Dsm writes no copy state
 * itself, and RacState stamps every RAC write.
 *
 * Every protocol speaks one wire format. A request is
 * coherence::packOp(GetS|GetX|Acq, page) on MsgType::GetExclusive, a
 * grant is packOp(GrantS|GrantE|GrantX, page) on MsgType::PutExclusive,
 * and the seq field is 0. The receiver decodes the page, the access
 * kind and the granted copy state from the opcode and page alone; the
 * 17 page bits cap a DSM at coherence::kOpMaxPages (2^17) pages.
 *
 * Costs follow the Table 5 calibration by domain class: strong kernels
 * fault fast and service in a bottom half (deferred further when
 * loaded); weak kernels fault slowly, service before any other pending
 * interrupt and, under the read-sharing protocols, pay the cascaded-MMU
 * read-tracking penalty on every fault. Pages start mapped at 1 MB
 * section grain and are demoted to 4 KB on their first fault (not under
 * RAC, whose invalidation is line-grain).
 *
 * With more than two kernels, faults on one page also serialise across
 * kernels: two faulters that need not ask each other would otherwise
 * both be granted. With two kernels every faulter asks its peer, and
 * crossing requests resolve in the service path instead.
 *
 * All of a page's state is one record (Dsm::Page) in a table indexed
 * by page number: its mapping grain, every kernel's copy state
 * (coherence::Directory's rules run over it), its RAC writer stamp
 * (coherence::RacState's), the faults in flight and their grant and
 * settle events. The table grows to page + 1 on a page's first
 * mutating touch; looking never grows it, and an untouched page reads
 * as born. Records never move: a suspended fault holds references
 * into its page's record.
 */

#ifndef K2_OS_DSM_H
#define K2_OS_DSM_H

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "sim/stats.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "soc/mmu.h"
#include "soc/soc.h"
#include "kern/kernel.h"
#include "os/coherence/directory.h"
#include "os/coherence/protocol.h"
#include "os/coherence/rac.h"
#include "os/kernel_mail.h"
#include "os/messages.h"
#include "os/retry.h"
#include "os/system.h"

namespace k2 {

namespace obs {
class MetricsRegistry;
}

namespace os {

class Dsm
{
  public:
    /** Protocol selector (see coherence::ProtocolKind for the zoo). */
    using Protocol = coherence::ProtocolKind;

    /** Per-kernel fault statistics (the Table 5 breakdown). */
    using FaultStats = coherence::FaultStats;

    /**
     * @param soc The platform.
     * @param kernels One kernel per coherence domain, main (strong)
     *        first; at most coherence::kMaxKernels.
     * @param num_pages Number of DSM-managed page keys available; at
     *        most coherence::kOpMaxPages (fatal otherwise).
     */
    Dsm(soc::Soc &soc, std::vector<kern::Kernel *> kernels,
        std::uint64_t num_pages, Protocol protocol = Protocol::TwoState);
    ~Dsm();

    Protocol protocol() const { return kind_; }

    std::size_t numKernels() const { return kernels_.size(); }

    /**
     * Enable/disable the fault-timeout retry (off while the timeout is
     * 0). A faulter whose grant times out re-sends its request to the
     * page's *current* holders, backing off per RetryPolicy::next with
     * unbounded attempts, so a fault stranded on a crashed kernel
     * redirects once the page is reclaimed to a survivor (or the
     * kernel revives).
     */
    void setRetryPolicy(RetryPolicy p) { retry_ = p; }

    /** Grant-timeout retries sent so far. */
    std::uint64_t retries() const { return retries_.value(); }

    /**
     * Crash recovery: @p dead loses every copy it holds. @p dead is
     * never kernel 0: the main kernel never dies (recovery reclaims
     * only from shadow replicas), so a page nobody touched stays as
     * born. Pages no
     * third kernel holds (or is being granted) pass to @p to as sole
     * holder (RAC: @p to inherits the pages @p dead last wrote), and
     * faults of @p to stranded waiting on @p dead complete locally.
     * Faults of other kernels redirect through the retry path.
     * Faults @p dead itself had in flight are abandoned: they stop
     * holding up other kernels' faults on their pages, send nothing
     * more, and re-fault from scratch once @p dead's domain is back
     * up.
     *
     * @return The pages whose state changed, ascending.
     */
    std::vector<std::uint64_t> reclaimFrom(KernelIdx dead, KernelIdx to);

    /** Reserve a range of DSM page keys for a shared region. */
    kern::PageRange allocRegion(std::uint64_t pages);

    /**
     * Access a DSM page from @p kern, charging costs to @p core.
     *
     * Satisfied locally if this kernel's copy permits the access;
     * otherwise takes the full fault path (messages, remote flush,
     * spin). Callable from thread or interrupt context.
     */
    sim::Task<void> access(kern::Kernel &kern, soc::Core &core,
                           std::uint64_t page, Access rw);

    /**
     * Mail dispatch: handle a DSM message received by @p to.
     * Called from the mailbox ISR.
     */
    sim::Task<void> handleMail(KernelIdx to, soc::Mail mail,
                               soc::Core &core);

    /** @name Introspection for tests and benches. @{ */

    /** True if @p kernel's copy of @p page permits @p rw locally. */
    bool isLocallyValid(KernelIdx kernel, std::uint64_t page,
                        Access rw) const;

    /** The page's owner: its M/E/O holder (RAC: its last writer). */
    KernelIdx ownerOf(std::uint64_t page) const;

    const FaultStats &faultStats(KernelIdx k) const
    {
        return stats_.at(k);
    }

    /** Total coherence messages sent. */
    std::uint64_t messagesSent() const { return messages_.value(); }

    /** Pages demoted to 4 KB mapping grain so far (§6.3 footprint
     *  optimisation). */
    std::uint64_t pagesDemoted() const { return demotions_.value(); }

    /** Per-kernel MMU model (exposed for TLB statistics). */
    soc::Mmu &mmu(KernelIdx k) { return *mmus_.at(k); }

    /** @} */

    /**
     * Register fault counters, the per-phase Table 5 histograms and
     * MMU statistics under "os.dsm.<kernel-name>.*". MESI/MOESI and
     * RAC add their own counters under "os.dsm.<proto>.*"; the paper's
     * two protocols add none.
     */
    void registerMetrics(obs::MetricsRegistry &reg) const;

    /**
     * Capture/restore protocol state: the page records (restore drops
     * the records grown after the capture point), MMU/TLB contents and
     * fault statistics.
     */
    void snapState(snap::Io &io);

  private:
    /** One kernel's fault in flight on one page. */
    struct Fault
    {
        bool outstanding = false;
        bool upgrade = false;      //!< Holds a valid copy while asking.
        bool raced = false;        //!< Copy invalidated mid-fault.
        bool grantArrived = false; //!< Grant really arrived (vs a
                                   //!< retry-timer pulse).
        bool abandoned = false;    //!< Its crashed kernel's pages were
                                   //!< reclaimed mid-fault.
        coherence::Copy grantState = coherence::Copy::I;
        std::uint32_t awaiting = 0; //!< Kernels still owing a grant.
        /** The last service for this fault, for the Table 5 split
         *  (0 when a reclaim completed it locally). */
        sim::Duration serviceTime = 0;
    };

    /** Everything the DSM knows about one page. Pinned in place:
     *  suspended faults hold references into it. */
    struct Page
    {
        explicit Page(sim::Engine &eng) : grant(eng), settled(eng) {}
        Page(const Page &) = delete;
        Page &operator=(const Page &) = delete;

        bool demoted = false;
        coherence::Copies copies{}; //!< Invalidation protocols.
        coherence::RacPage rac;     //!< RAC.
        Fault *faults = nullptr; //!< One per kernel (faultChunks_).
        sim::Event grant;   //!< Pulsed on PutExclusive.
        sim::Event settled; //!< Pulsed when a local fault fully
                            //!< completes.
    };

    /** @p page's record, growing the table to it on first touch. */
    Page &record(std::uint64_t page);
    std::uint32_t faulting(const Page &pg) const;
    /** Faults on one page serialise across kernels (RAC acquires
     *  always; invalidation faults beyond two kernels). */
    bool serialised() const { return rac_ || kernels_.size() > 2; }
    /** True while @p k's domain is crashed (per the fault injector). */
    bool down(KernelIdx k);
    /** Mail @p payload (coherence::packOp) from @p from to @p to. */
    void send(KernelIdx from, KernelIdx to, MsgType type,
              std::uint32_t payload);
    /** Send @p k's request for @p page to the kernels the protocol's
     *  rules name (Directory::targets: a GetS, or a GetX if
     *  @p exclusive; RacState::targets: an Acq), and await a grant
     *  from each. */
    void ask(Page &pg, KernelIdx k, std::uint64_t page, bool exclusive);
    soc::Core &serviceCore(KernelIdx k);
    sim::Task<void> bottomHalf(KernelIdx k);
    sim::Task<void> awaitGrant(Page &pg, KernelIdx k,
                               soc::Core &core, std::uint64_t page,
                               bool exclusive);
    /** Emit @p k's completed fault as spans and Table-5 samples. */
    void recordFault(KernelIdx k, const Fault &f, sim::Time t0,
                     sim::Time t1, sim::Time t2, sim::Time t3,
                     sim::Time t4);
    /** Serve @p req's request @p op for @p page at kernel @p t and
     *  grant it. */
    sim::Task<void> service(KernelIdx t, KernelIdx req,
                            std::uint64_t page, coherence::ReqOp op);

    soc::Soc &soc_;
    std::vector<kern::Kernel *> kernels_;
    KernelIndex idx_;
    Protocol kind_;
    std::uint64_t numPages_;
    std::uint64_t nextRegionPage_ = 0;
    std::vector<char> strong_; //!< Strong-domain kernel (Table 5 class).
    std::vector<std::unique_ptr<soc::Mmu>> mmus_;
    std::vector<FaultStats> stats_;
    std::vector<sim::TrackId> tracks_; //!< Per-kernel span tracks.
    std::deque<Page> pages_; //!< Indexed by page number.
    /** The pages' fault slots, one per kernel, for kFaultChunkPages
     *  pages a chunk: sized by the kernel count, never moved. */
    static constexpr std::uint64_t kFaultChunkPages = 64;
    std::vector<std::unique_ptr<Fault[]>> faultChunks_;
    sim::Counter messages_;
    sim::Counter demotions_;
    sim::Counter retries_;
    sim::Counter forwards_;   //!< MOESI dirty cache-to-cache forwards.
    sim::Counter writebacks_; //!< Dirty writebacks on service.
    RetryPolicy retry_{};
    std::unique_ptr<coherence::Directory> dir_; //!< All but RAC.
    std::unique_ptr<coherence::RacState> rac_;  //!< RAC.
};

} // namespace os
} // namespace k2

#endif // K2_OS_DSM_H
