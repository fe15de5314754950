#include "kern/kernel.h"

#include <algorithm>

#include "sim/log.h"
#include "snap/io.h"

namespace k2 {
namespace kern {

Kernel::Kernel(soc::Soc &soc, soc::DomainId domain, std::string name)
    : soc_(soc), domainId_(domain), name_(std::move(name))
{
    auto &dom = soc_.domain(domainId_);
    std::vector<soc::Core *> cores;
    for (std::size_t i = 0; i < dom.numCores(); ++i)
        cores.push_back(&dom.core(i));
    sched_ = std::make_unique<Scheduler>(soc_.engine(), std::move(cores),
                                         soc_.costs());
    // Each kernel's allocator instance can manage any page of RAM; it
    // starts empty and is populated at boot (baseline) or through the
    // balloon driver (K2).
    buddy_ = std::make_unique<BuddyAllocator>(name_ + "-buddy", 0,
                                              soc_.numPages());
}

Kernel::~Kernel() = default;

void
Kernel::snapState(snap::Io &io)
{
    io.pod(booted_);
    io.check(irqLog_.size(), "Kernel::irqLog");

    // Thread table: Done threads are reaped as they finish, so a
    // quiescent instance of the captured system holds exactly the
    // captured live threads.
    io.check(threads_.size(), "Kernel::threads");
    for (auto &t : threads_) {
        io.check(t->tid(), "Kernel::thread");
        t->snapState(io);
    }

    sched_->snapState(io, threads_);
    buddy_->snapState(io);
}

void
Kernel::boot()
{
    K2_ASSERT(!booted_);
    booted_ = true;
    sched_->start();
    registerIrq(soc::kIrqMailbox,
                [this](soc::Core &core) { return mailboxIsr(core); });
}

sim::Task<void>
Kernel::mailboxIsr(soc::Core &core)
{
    while (auto mail = soc_.mailbox().tryRead(domainId_)) {
        // Reading the mailbox register costs one bus access.
        co_await core.execTime(soc_.costs().busAccess);
        if (mailHandler_)
            co_await mailHandler_(*mail, core);
        else
            K2_PANIC("kernel '%s': mail received with no handler",
                     name_.c_str());
    }
}

void
Kernel::sendMail(soc::DomainId to, std::uint32_t word)
{
    if (transport_)
        transport_(to, word);
    else
        soc_.mailbox().send(domainId_, to, word);
}

void
Kernel::sendMailRaw(soc::DomainId to, std::uint32_t word)
{
    soc_.mailbox().send(domainId_, to, word);
}

Thread *
Kernel::spawnThread(Process *proc, std::string name, ThreadKind kind,
                    Thread::Body body)
{
    K2_ASSERT(booted_);
    threads_.push_back(std::make_unique<Thread>(
        *this, proc, soc_.allocThreadId(), std::move(name), kind,
        std::move(body)));
    Thread *t = threads_.back().get();
    if (proc && kind == ThreadKind::NightWatch)
        proc->noteNightWatch();
    sched_->makeReady(*t);
    return t;
}

void
Kernel::reap(Thread &t)
{
    t.reap();
    auto it = std::find_if(threads_.begin(), threads_.end(),
                           [&t](const auto &p) { return p.get() == &t; });
    K2_ASSERT(it != threads_.end());
    threads_.erase(it);
}

void
Kernel::registerIrq(soc::IrqLine line, soc::IrqHandler handler)
{
    irqLog_.emplace_back(line, handler);
    domain().irqCtrl().registerHandler(line, std::move(handler));
}

std::size_t
Kernel::replayIrqRegistrations()
{
    auto &ctrl = domain().irqCtrl();
    for (const auto &[line, handler] : irqLog_)
        ctrl.registerHandler(line, handler);
    return irqLog_.size();
}

sim::Duration
Kernel::kernelWorkTime(const soc::Core &core, std::uint64_t work) const
{
    const double instr =
        static_cast<double>(work) * core.spec().kernelCostFactor;
    const auto cycles = static_cast<std::uint64_t>(
        instr / core.spec().instrPerCycle + 0.5);
    return sim::cyclesToTime(cycles ? cycles : 1, core.hz());
}

std::uint64_t
Kernel::kernelInstructions(const soc::Core &core, std::uint64_t work)
{
    const double instr =
        static_cast<double>(work) * core.spec().kernelCostFactor;
    return static_cast<std::uint64_t>(instr + 0.5);
}

sim::Task<void>
Kernel::chargeKernelWork(Thread &t, std::uint64_t work)
{
    co_await t.exec(kernelInstructions(t.core(), work));
}

sim::Task<PageRange>
Kernel::allocPages(Thread &t, unsigned order, Migrate migrate)
{
    auto res = buddy_->alloc(order, migrate);
    if (!res) {
        if (probe_)
            probe_(buddy_->freePages());
        co_return PageRange{};
    }
    co_await chargeKernelWork(t, res->work);
    if (probe_)
        probe_(buddy_->freePages());
    co_return res->range;
}

sim::Task<void>
Kernel::freePages(Thread &t, PageRange range)
{
    const std::uint64_t work = buddy_->free(range.first);
    co_await chargeKernelWork(t, work);
    if (probe_)
        probe_(buddy_->freePages());
}

} // namespace kern
} // namespace k2
