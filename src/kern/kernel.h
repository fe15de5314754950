/**
 * @file
 * A kernel instance running on one coherence domain.
 *
 * Both K2 kernels (main and shadow) and the baseline single kernel are
 * instances of this class: it owns the domain's scheduler, the local
 * page-allocator instance, interrupt registration, and the mailbox
 * receive path. The K2 layer composes two of these with the DSM,
 * balloon drivers, interrupt router, and NightWatch protocol.
 */

#ifndef K2_KERN_KERNEL_H
#define K2_KERN_KERNEL_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "soc/soc.h"
#include "kern/buddy.h"
#include "kern/sched.h"
#include "kern/thread.h"
#include "kern/types.h"

namespace k2 {
namespace kern {

class Kernel
{
  public:
    /** Invoked (in interrupt context) for each received mail. */
    using MailHandler =
        std::function<sim::Task<void>(soc::Mail, soc::Core &)>;

    /**
     * @param soc The platform.
     * @param domain The coherence domain this kernel boots on.
     * @param name Kernel name ("main", "shadow", "linux").
     */
    Kernel(soc::Soc &soc, soc::DomainId domain, std::string name);

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;
    ~Kernel();

    /** @name Accessors. @{ */
    const std::string &name() const { return name_; }
    soc::Soc &soc() { return soc_; }
    sim::Engine &engine() { return soc_.engine(); }
    soc::DomainId domainId() const { return domainId_; }
    soc::CoherenceDomain &domain() { return soc_.domain(domainId_); }
    Scheduler &scheduler() { return *sched_; }
    BuddyAllocator &pageAllocator() { return *buddy_; }
    /** @} */

    /**
     * Boot: start the scheduler's core loops and claim the mailbox
     * interrupt.
     */
    void boot();
    bool booted() const { return booted_; }

    /**
     * Create a thread in this kernel.
     *
     * @param proc Owning process (may be nullptr for kernel threads).
     * @param name Thread name.
     * @param kind Normal or NightWatch.
     * @param body The thread's simulated code.
     * @return Borrowed pointer; the kernel owns the thread and frees
     *         it when the scheduler reaps it after its body returns,
     *         so the pointer is valid only until then.
     */
    Thread *spawnThread(Process *proc, std::string name, ThreadKind kind,
                        Thread::Body body);

    /** Register an interrupt handler on this domain's controller. */
    void registerIrq(soc::IrqLine line, soc::IrqHandler handler);

    /**
     * Re-register every IRQ handler this kernel ever registered
     * (including the boot-time mailbox ISR), in original order.
     * Recovery calls this after resetting a crashed domain's
     * controller to replay the kernel's device setup.
     *
     * @return Number of lines re-registered.
     */
    std::size_t replayIrqRegistrations();

    /** Install the handler for incoming hardware mails. */
    void setMailHandler(MailHandler h) { mailHandler_ = std::move(h); }

    /** Post a mail to another domain's kernel. */
    void sendMail(soc::DomainId to, std::uint32_t word);

    /**
     * Interpose on outgoing mail (the reliable-mail shim). When set,
     * sendMail hands (to, word) to the transport instead of posting to
     * the mailbox directly.
     */
    using MailTransport =
        std::function<void(soc::DomainId, std::uint32_t)>;
    void setMailTransport(MailTransport t) { transport_ = std::move(t); }

    /** Post a mail bypassing any installed transport. */
    void sendMailRaw(soc::DomainId to, std::uint32_t word);

    /**
     * Time for this kernel's cores to run @p work units of kernel
     * bookkeeping (applies the core's kernelCostFactor).
     */
    sim::Duration kernelWorkTime(const soc::Core &core,
                                 std::uint64_t work) const;

    /** Instructions @p core runs for @p work units of kernel
     *  bookkeeping (applies the core's kernelCostFactor, rounded). */
    static std::uint64_t kernelInstructions(const soc::Core &core,
                                            std::uint64_t work);

    /** Charge @p work units of kernel bookkeeping to @p t's core. */
    sim::Task<void> chargeKernelWork(Thread &t, std::uint64_t work);

    /** @name Page-allocator service (an *independent* service). @{ */

    /**
     * Allocate 2^order pages from the local allocator instance,
     * charging the allocation latency to the calling thread.
     *
     * @return The block, or an empty range on failure.
     */
    sim::Task<PageRange> allocPages(Thread &t, unsigned order,
                                    Migrate migrate = Migrate::Movable);

    /** Free pages to the local allocator, charging latency. */
    sim::Task<void> freePages(Thread &t, PageRange range);

    /**
     * Hook invoked after every allocation/free with the current free
     * page count (the meta-level manager's pressure probe, §6.2;
     * "less than twenty instructions" -- we charge none).
     */
    using PressureProbe = std::function<void(std::uint64_t free_pages)>;
    void setPressureProbe(PressureProbe p) { probe_ = std::move(p); }

    /** @} */

    /**
     * The live threads, in spawn order: a thread is listed from
     * spawnThread until its body returns and the scheduler reaps it.
     */
    const std::vector<std::unique_ptr<Thread>> &threads() const
    {
        return threads_;
    }

    /**
     * Capture/restore the kernel: the thread table (the restore target
     * must hold the same live threads), every thread's semantic state,
     * the scheduler, and the page allocator.
     */
    void snapState(snap::Io &io);

  private:
    friend class Scheduler;

    /** Destroy a Done thread's frame, drop it from the table and free
     *  it. */
    void reap(Thread &t);

    sim::Task<void> mailboxIsr(soc::Core &core);

    soc::Soc &soc_;
    soc::DomainId domainId_;
    std::string name_;
    std::unique_ptr<Scheduler> sched_;
    std::unique_ptr<BuddyAllocator> buddy_;
    std::vector<std::unique_ptr<Thread>> threads_;
    MailHandler mailHandler_;
    MailTransport transport_;
    PressureProbe probe_;
    /** Every (line, handler) registered, for crash-recovery replay. */
    std::vector<std::pair<soc::IrqLine, soc::IrqHandler>> irqLog_;
    bool booted_ = false;
};

} // namespace kern
} // namespace k2

#endif // K2_KERN_KERNEL_H
