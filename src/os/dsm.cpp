#include "os/dsm.h"

#include <algorithm>

#include "fault/injector.h"
#include "obs/metrics.h"
#include "sim/log.h"
#include "snap/io.h"

namespace k2 {
namespace os {

using coherence::Copy;
using coherence::Directory;
using coherence::ProtocolKind;
using coherence::RepOp;
using coherence::ReqOp;

namespace {

/** Per-fault cost constants of one kernel (Table 5 calibration). */
struct KernelCosts
{
    /** Exception entry + fault decoding on the faulting kernel. */
    sim::Duration faultEntry;
    /** Coherence-protocol bookkeeping on the faulting kernel. */
    sim::Duration protocolExec;
    /** Request servicing on the asked kernel, before the cache flush
     *  (which is charged separately from the domain spec). */
    sim::Duration serviceBase;
    /** Fault exit + cache refill on the faulting kernel. */
    sim::Duration exitRefill;
};

constexpr KernelCosts kStrongCosts{sim::usec(3), sim::usec(2), 0,
                                   sim::usec(18)};
constexpr KernelCosts kWeakCosts{sim::usec(17), sim::usec(13),
                                 sim::usec(8), sim::usec(2)};

const KernelCosts &
costsFor(bool strong)
{
    return strong ? kStrongCosts : kWeakCosts;
}

/** Bottom-half delay before a strong kernel services a request, and
 *  the extra deferral when it is under load. */
constexpr sim::Duration kBottomHalf = sim::usec(4);
constexpr sim::Duration kLoadedDefer = sim::usec(30);

} // namespace

Dsm::Dsm(soc::Soc &soc, std::vector<kern::Kernel *> kernels,
         std::uint64_t num_pages, Protocol protocol)
    : soc_(soc), kernels_(std::move(kernels)), kind_(protocol),
      numPages_(num_pages), stats_(kernels_.size())
{
    K2_ASSERT(kernels_.size() >= 2 &&
              kernels_.size() <= coherence::kMaxKernels);
    for (kern::Kernel *k : kernels_) {
        K2_ASSERT(k != nullptr);
        const auto &spec = k->domain().spec().core;
        strong_.push_back(spec.kernelCostFactor <= 1.0 ? 1 : 0);
        mmus_.push_back(std::make_unique<soc::Mmu>(spec));
        tracks_.push_back(soc_.engine().addTrack("os.dsm." + k->name()));
    }
    if (numPages_ > coherence::kOpMaxPages)
        K2_FATAL("%s DSM limited to %llu pages (opcode payload bits), "
                 "got %llu",
                 coherence::protocolName(kind_),
                 static_cast<unsigned long long>(coherence::kOpMaxPages),
                 static_cast<unsigned long long>(numPages_));
    if (kind_ == ProtocolKind::Rac)
        rac_ = std::make_unique<coherence::RacState>(kernels_.size());
    else
        dir_ = std::make_unique<Directory>(kind_, kernels_.size());
}

Dsm::~Dsm() = default;

kern::PageRange
Dsm::allocRegion(std::uint64_t pages)
{
    if (nextRegionPage_ + pages > numPages_)
        K2_FATAL("DSM region space exhausted (%llu + %llu > %llu)",
                 static_cast<unsigned long long>(nextRegionPage_),
                 static_cast<unsigned long long>(pages),
                 static_cast<unsigned long long>(numPages_));
    kern::PageRange r{nextRegionPage_, pages};
    nextRegionPage_ += pages;
    return r;
}

Dsm::Page &
Dsm::record(std::uint64_t page)
{
    K2_ASSERT(page < numPages_);
    const std::size_t n = kernels_.size();
    while (pages_.size() <= page) {
        const std::uint64_t p = pages_.size();
        if (p / kFaultChunkPages == faultChunks_.size())
            faultChunks_.push_back(
                std::make_unique<Fault[]>(kFaultChunkPages * n));
        Page &pg = pages_.emplace_back(soc_.engine());
        // A chunk outlives a restore that drops its pages; re-growing
        // them starts from fresh faults.
        pg.faults = &faultChunks_[p / kFaultChunkPages]
                                 [p % kFaultChunkPages * n];
        std::fill_n(pg.faults, n, Fault{});
        if (dir_)
            pg.copies = dir_->born();
    }
    return pages_[page];
}

KernelIdx
Dsm::idxOf(const kern::Kernel &k) const
{
    for (KernelIdx i = 0; i < kernels_.size(); ++i) {
        if (kernels_[i] == &k)
            return i;
    }
    K2_PANIC("kernel '%s' is not part of this DSM", k.name().c_str());
}

std::uint32_t
Dsm::faulting(const Page &pg) const
{
    std::uint32_t mask = 0;
    for (KernelIdx k = 0; k < kernels_.size(); ++k) {
        if (pg.faults[k].outstanding && !pg.faults[k].abandoned)
            mask |= Directory::bit(k);
    }
    return mask;
}

bool
Dsm::down(KernelIdx k)
{
    const fault::FaultInjector *inj = soc_.mailbox().faultInjector();
    return inj != nullptr && inj->domainDown(kernels_[k]->domainId());
}

bool
Dsm::isLocallyValid(KernelIdx kernel, std::uint64_t page,
                    Access rw) const
{
    // A page past the table's end is untouched: read it as born.
    const bool touched = page < pages_.size();
    if (rac_) {
        return rac_->permits(kernel,
                             touched ? pages_[page].rac
                                     : coherence::RacPage{},
                             rw);
    }
    const Copy s =
        touched ? pages_[page].copies[kernel] : dir_->born()[kernel];
    return Directory::permits(s, rw);
}

KernelIdx
Dsm::ownerOf(std::uint64_t page) const
{
    if (page >= pages_.size())
        return 0; // Untouched: born kernel 0's.
    return rac_ ? pages_[page].rac.lastWriter
                : dir_->ownerOf(pages_[page].copies);
}

sim::Task<void>
Dsm::access(kern::Kernel &kern, soc::Core &core, std::uint64_t page,
            Access rw)
{
    const KernelIdx k = idxOf(kern);
    return rac_ ? accessRac(k, core, page, rw)
                : accessCopy(k, core, page, rw);
}

void
Dsm::send(KernelIdx from, KernelIdx to, MsgType type,
          std::uint32_t payload)
{
    messages_.inc();
    kernels_[from]->sendMail(kernels_[to]->domainId(),
                             encodeMessage(type, payload, 0));
}

void
Dsm::askHolders(KernelIdx k, std::uint64_t page, bool exclusive)
{
    Page &pg = record(page);
    Fault &f = pg.faults[k];
    f.awaiting = dir_->targets(pg.copies, k, exclusive);
    const std::uint32_t req = coherence::packOp(
        exclusive ? ReqOp::GetX : ReqOp::GetS, page);
    for (KernelIdx j = 0; j < kernels_.size(); ++j) {
        if ((f.awaiting & Directory::bit(j)) != 0)
            send(k, j, MsgType::GetExclusive, req);
    }
}

void
Dsm::askWriter(KernelIdx k, KernelIdx w, std::uint64_t page)
{
    record(page).faults[k].awaiting = Directory::bit(w);
    send(k, w, MsgType::GetExclusive, coherence::packOp(ReqOp::Acq, page));
}

soc::Core &
Dsm::serviceCore(KernelIdx k)
{
    soc::CoherenceDomain &dom = kernels_[k]->domain();
    for (std::size_t i = 0; i < dom.numCores(); ++i) {
        if (dom.core(i).state() == soc::PowerState::Idle)
            return dom.core(i);
    }
    return dom.core(0);
}

sim::Task<void>
Dsm::bottomHalf(KernelIdx k)
{
    // The main (strong) kernel handles coherence requests in a bottom
    // half and defers further under load; weak kernels serve
    // immediately.
    if (!strong_[k])
        co_return;
    sim::Duration defer = kBottomHalf;
    if (kernels_[k]->scheduler().runqueueDepth() > 0)
        defer += kLoadedDefer;
    co_await soc_.engine().sleep(defer);
}

sim::Task<void>
Dsm::awaitGrant(Page &pg, KernelIdx k, soc::Core &core,
                std::uint64_t page, bool exclusive)
{
    // Spin (synchronously -- the faulting context may be an interrupt
    // handler) until the grant arrives; a pulse for another kernel's
    // grant on this page re-waits. With a retry policy, re-send the
    // request when the grant times out: the request or its grant may
    // have been lost, or the asked kernel may be down until the
    // watchdog revives it (or reclaims the page from it).
    Fault &f = pg.faults[k];
    pg.grant.reset();
    f.grantArrived = false;
    core.pinActive();
    sim::Duration rto = retry_.timeout;
    while (!f.grantArrived) {
        bool timer_fired = false;
        sim::Event *grant = &pg.grant;
        sim::EventId timer;
        if (rto != 0) {
            timer = soc_.engine().after(rto, [grant, &timer_fired]() {
                timer_fired = true;
                grant->pulse();
            });
        }
        co_await pg.grant.wait();
        soc_.engine().cancel(timer);
        if (f.grantArrived)
            break;
        if (!timer_fired)
            continue; // Woken by an unrelated pulse; re-wait.
        if (f.abandoned) {
            // Reclaimed mid-fault: resend nothing; once this kernel's
            // domain is back, the caller faults afresh.
            if (!down(k))
                break;
            rto = retry_.next(rto);
            continue;
        }
        retries_.inc();
        if (rac_) {
            K2_TRACE(soc_.engine(), sim::TraceCat::Dsm,
                     "%s retries Acq for page %llu",
                     kernels_[k]->name().c_str(),
                     static_cast<unsigned long long>(page));
            // Re-read the writer: a reclaim may have moved the page
            // since the original Acq.
            const KernelIdx w = pg.rac.lastWriter;
            if (w == k)
                break;
            askWriter(k, w, page);
        } else {
            K2_TRACE(soc_.engine(), sim::TraceCat::Dsm,
                     "%s retries Get for page %llu",
                     kernels_[k]->name().c_str(),
                     static_cast<unsigned long long>(page));
            // Ask the page's current holders, which a reclaim may have
            // changed since the original request.
            askHolders(k, page, exclusive);
        }
        rto = retry_.next(rto);
    }
    core.unpinActive();
}

void
Dsm::recordFault(KernelIdx k, const Fault &f, sim::Time t0,
                 sim::Time t1, sim::Time t2, sim::Time t3, sim::Time t4)
{
    // Emit the fault and its phases as nested spans on the faulting
    // kernel's track: a parent "fault" X event spanning t0..t4 with
    // four child phases inside it (the same breakdown as Table 5).
    if (soc_.engine().tracer().spansOn()) {
        sim::Tracer &tr = soc_.engine().tracer();
        tr.spanComplete(t0, t4 - t0, tracks_[k], "fault");
        tr.spanComplete(t0, t1 - t0, tracks_[k], "fault_entry");
        tr.spanComplete(t1, t2 - t1, tracks_[k], "protocol");
        tr.spanComplete(t2, t3 - t2, tracks_[k], "comm+service");
        tr.spanComplete(t3, t4 - t3, tracks_[k], "exit_refill");
    }

    FaultStats &st = stats_[k];
    st.localFaultUs.sample(sim::toUsec(t1 - t0));
    st.protocolUs.sample(sim::toUsec(t2 - t1));
    st.serviceUs.sample(sim::toUsec(f.serviceTime));
    st.commUs.sample(sim::toUsec(t3 - t2) - sim::toUsec(f.serviceTime));
    st.exitUs.sample(sim::toUsec(t4 - t3));
    st.totalUs.sample(sim::toUsec(t4 - t0));
}

// ---------------------------------------------------------------------
// Invalidation protocols (two-state, MSI, MESI, MOESI).
// ---------------------------------------------------------------------

sim::Task<void>
Dsm::accessCopy(KernelIdx k, soc::Core &core, std::uint64_t page,
                Access rw)
{
    Page &pg = record(page);
    Fault &f = pg.faults[k];
    const KernelCosts &c = costsFor(strong_[k]);

    // Address translation through the local MMU at the page's current
    // mapping grain.
    const auto grain =
        pg.demoted ? soc::MapGrain::Page4K : soc::MapGrain::Section1M;
    const sim::Duration walk = mmus_[k]->translate(page, grain);
    if (walk)
        co_await core.execTime(walk);

    for (;;) {
        // Serialise with a fault already in flight on this kernel (and,
        // beyond two kernels, on any kernel).
        while (f.outstanding || (serialised() && faulting(pg) != 0)) {
            core.pinActive();
            co_await pg.settled.wait();
            core.unpinActive();
        }
        coherence::Copies &e = pg.copies;
        if (Directory::permits(e[k], rw)) {
            // Silent E->M upgrade: no messages, no cost.
            if (rw == Access::Write && e[k] == Copy::E)
                e[k] = Copy::M;
            co_return;
        }

        // ---- Full fault path (Table 5). ----
        stats_[k].faults.inc();
        K2_TRACE(soc_.engine(), sim::TraceCat::Dsm,
                 "%s %s-faults on page %llu (%s)",
                 kernels_[k]->name().c_str(),
                 coherence::protocolName(kind_),
                 static_cast<unsigned long long>(page),
                 rw == Access::Write ? "W" : "R");
        f.outstanding = true;
        f.serviceTime = 0;
        // An upgrade fault holds a valid (read) copy while requesting
        // exclusivity; a concurrent exclusive request invalidates it
        // and marks the race.
        f.upgrade = e[k] != Copy::I;
        f.raced = false;

        if (!pg.demoted) {
            // Replacing the local large-grain mapping with 4 KB
            // entries: one page-table update on the faulting side. The
            // remote side's mapping is rewritten when it services or
            // faults next; its cost is folded into the protection
            // updates charged there.
            pg.demoted = true;
            demotions_.inc();
            co_await core.execTime(mmus_[k]->protectionUpdate(page));
        }

        const sim::Time t0 = soc_.engine().now();
        sim::Duration entry = c.faultEntry;
        // Read sharing needs read/write distinction from the MMU; weak
        // kernels pay the cascaded-MMU tracking penalty (§6.3).
        if (coherence::readSharing(kind_) && !strong_[k])
            entry += mmus_[k]->readTrackPenalty();
        co_await core.execTime(entry);
        const sim::Time t1 = soc_.engine().now();

        co_await core.execTime(c.protocolExec);
        const sim::Time t2 = soc_.engine().now();

        // The two-state protocol has no read copies: every fault asks
        // for exclusivity.
        const bool exclusive =
            kind_ == ProtocolKind::TwoState || rw == Access::Write;
        askHolders(k, page, exclusive);
        co_await awaitGrant(pg, k, core, page, exclusive);
        if (f.abandoned) {
            f = Fault{};
            pg.settled.pulse();
            continue;
        }
        const sim::Time t3 = soc_.engine().now();

        co_await core.execTime(c.exitRefill +
                               mmus_[k]->protectionUpdate(page));
        const sim::Time t4 = soc_.engine().now();

        const bool raced = f.raced;
        if (!raced)
            e[k] = exclusive ? Copy::M : f.grantState;
        f.outstanding = false;
        f.upgrade = false;
        pg.settled.pulse();
        recordFault(k, f, t0, t1, t2, t3, t4);

        if (!raced)
            co_return;
        // Our copy was invalidated by a concurrent exclusive request
        // while we waited; retry the fault.
    }
}

sim::Task<void>
Dsm::serviceGet(KernelIdx t, KernelIdx req, std::uint64_t page,
                bool exclusive)
{
    Page &pg = record(page);
    Fault &f = pg.faults[t];
    co_await bottomHalf(t);

    // Serialise with a local fault in flight, except for a concurrent
    // upgrade race, which we resolve by invalidating the local copy
    // and letting the local fault retry.
    while (f.outstanding && !f.upgrade)
        co_await pg.settled.wait();

    soc::Core &core = serviceCore(t);
    if (!core.awake())
        co_await core.ensureAwake();

    const sim::Time t_start = soc_.engine().now();
    soc::CoherenceDomain &dom = kernels_[t]->domain();
    coherence::Copies &e = pg.copies;
    const Copy s = e[t];
    const bool dirty = Directory::dirty(s);
    sim::Duration cost = costsFor(strong_[t]).serviceBase +
                         mmus_[t]->protectionUpdate(page);
    if (dirty) {
        if (kind_ == ProtocolKind::Moesi) {
            // Owner forwards dirty data cache-to-cache through the
            // coherent region; no memory writeback.
            cost += dom.flushTime(soc_.pageBytes()) / 2;
            forwards_.inc();
        } else {
            cost += dom.flushTime(soc_.pageBytes());
            writebacks_.inc();
        }
    }
    co_await core.execTime(cost);

    RepOp grant = RepOp::GrantX;
    if (!exclusive) {
        grant = dir_->downgrade(e, t);
    } else {
        if (f.outstanding && f.upgrade)
            f.raced = true;
        e[t] = Copy::I;
    }
    pg.faults[req].serviceTime = soc_.engine().now() - t_start;
    soc_.engine().spanComplete(t_start, tracks_[t], "service");

    K2_TRACE(soc_.engine(), sim::TraceCat::Dsm,
             "%s services page %llu (%s, %s)",
             kernels_[t]->name().c_str(),
             static_cast<unsigned long long>(page),
             exclusive ? "GetX" : "GetS",
             dirty ? (kind_ == ProtocolKind::Moesi ? "forward"
                                                   : "writeback")
                   : "clean");
    send(t, req, MsgType::PutExclusive, coherence::packOp(grant, page));
}

// ---------------------------------------------------------------------
// Release-acquire (RAC).
// ---------------------------------------------------------------------

sim::Task<void>
Dsm::accessRac(KernelIdx k, soc::Core &core, std::uint64_t page,
               Access rw)
{
    Page &pg = record(page);
    Fault &f = pg.faults[k];
    const KernelCosts &c = costsFor(strong_[k]);

    // Pages are never demoted under release-acquire (invalidation is
    // line-grain via the log), so translation stays at section grain.
    const sim::Duration walk =
        mmus_[k]->translate(page, soc::MapGrain::Section1M);
    if (walk)
        co_await core.execTime(walk);

    for (;;) {
        // Serialise with an acquire already in flight on this page.
        while (f.outstanding || (serialised() && faulting(pg) != 0)) {
            core.pinActive();
            co_await pg.settled.wait();
            core.unpinActive();
        }
        if (isLocallyValid(k, page, rw)) {
            if (rw == Access::Write) {
                // Owner write: append the modified line addresses to
                // this domain's log through the coherent region.
                rac_->append(k, pg.rac);
                co_await core.execTime(soc_.costs().busAccess);
            }
            co_return;
        }

        // ---- Acquire fault (Table-5 phases). ----
        stats_[k].faults.inc();
        K2_TRACE(soc_.engine(), sim::TraceCat::Dsm,
                 "%s acquires page %llu (%s)",
                 kernels_[k]->name().c_str(),
                 static_cast<unsigned long long>(page),
                 rw == Access::Write ? "W" : "R");
        f.outstanding = true;
        f.serviceTime = 0;

        // No read-tracking penalty: invalidation is push-based via the
        // writer's log, so the weak MMU never write-protects for reads.
        const sim::Time t0 = soc_.engine().now();
        co_await core.execTime(c.faultEntry);
        const sim::Time t1 = soc_.engine().now();

        co_await core.execTime(c.protocolExec);
        const sim::Time t2 = soc_.engine().now();

        askWriter(k, pg.rac.lastWriter, page);
        co_await awaitGrant(pg, k, core, page, true);
        if (f.abandoned) {
            f = Fault{};
            pg.settled.pulse();
            continue;
        }
        const sim::Time t3 = soc_.engine().now();

        // Drain every peer log with pending entries: invalidate the
        // listed lines locally and merge the writers' clocks. One
        // acquire freshens the writer's whole backlog, not just the
        // faulting page.
        for (KernelIdx j = 0; j < kernels_.size(); ++j) {
            const std::uint32_t pend =
                j == k ? 0 : rac_->pendingLines(k, j);
            if (pend == 0)
                continue;
            const sim::Time d0 = soc_.engine().now();
            rac_->drain(k, j);
            co_await core.execTime(pend * coherence::kRacLineInvalidate);
            soc_.engine().spanComplete(d0, tracks_[k], "drain");
        }

        sim::Duration exit = c.exitRefill;
        if (rw == Access::Write)
            exit += mmus_[k]->protectionUpdate(page);
        co_await core.execTime(exit);
        const sim::Time t4 = soc_.engine().now();

        // A write takes ownership, logging the write that triggered
        // the acquire.
        if (rw == Access::Write)
            rac_->append(k, pg.rac);
        f.outstanding = false;
        pg.settled.pulse();
        recordFault(k, f, t0, t1, t2, t3, t4);

        if (rw == Access::Write)
            co_return; // Ownership taken; the write is logged.
        // Reads re-check freshness: the writer may have released again
        // while we drained.
    }
}

sim::Task<void>
Dsm::serviceAcquire(KernelIdx writer, KernelIdx req, std::uint64_t page)
{
    Page &pg = record(page);
    co_await bottomHalf(writer);

    soc::Core &core = serviceCore(writer);
    if (!core.awake())
        co_await core.ensureAwake();

    // Release: flush the page's dirty lines through the coherent
    // region so the acquirer's drain observes them.
    const sim::Time t_start = soc_.engine().now();
    co_await core.execTime(
        costsFor(strong_[writer]).serviceBase +
        kernels_[writer]->domain().flushTime(soc_.pageBytes()));
    pg.faults[req].serviceTime = soc_.engine().now() - t_start;
    soc_.engine().spanComplete(t_start, tracks_[writer], "service");
    K2_TRACE(soc_.engine(), sim::TraceCat::Dsm, "%s releases page %llu",
             kernels_[writer]->name().c_str(),
             static_cast<unsigned long long>(page));

    send(writer, req, MsgType::PutExclusive,
         coherence::packOp(RepOp::GrantX, page));
}

// ---------------------------------------------------------------------
// Mail dispatch, recovery, metrics, snapshots.
// ---------------------------------------------------------------------

sim::Task<void>
Dsm::handleMail(KernelIdx to, soc::Mail mail, soc::Core &core)
{
    const Message msg = decodeMessage(mail.word);
    KernelIdx from = kernels_.size();
    for (KernelIdx i = 0; i < kernels_.size(); ++i) {
        if (kernels_[i]->domainId() == mail.from)
            from = i;
    }
    K2_ASSERT(from < kernels_.size());

    const std::uint64_t page = coherence::pageOf(msg.payload);
    const std::uint32_t op = coherence::opOf(msg.payload);
    switch (msg.type) {
      case MsgType::GetExclusive:
        // Service as a separate task so the mailbox ISR can keep
        // draining (the main kernel's bottom-half behaviour); a weak
        // kernel's zero deferral makes it effectively immediate.
        if (rac_) {
            K2_ASSERT(op == static_cast<std::uint32_t>(ReqOp::Acq));
            soc_.engine().spawn(serviceAcquire(to, from, page));
        } else {
            soc_.engine().spawn(serviceGet(
                to, from, page,
                op == static_cast<std::uint32_t>(ReqOp::GetX)));
        }
        co_return;
      case MsgType::PutExclusive: {
        // Grant: wake the spinning requester once every asked kernel
        // has answered.
        co_await core.execTime(soc_.costs().busAccess);
        Page &pg = record(page);
        Fault &f = pg.faults[to];
        switch (static_cast<RepOp>(op)) {
          case RepOp::GrantS: f.grantState = Copy::S; break;
          case RepOp::GrantE: f.grantState = Copy::E; break;
          case RepOp::GrantX: f.grantState = Copy::M; break;
        }
        f.awaiting &= ~Directory::bit(from);
        if (f.awaiting == 0) {
            f.grantArrived = true;
            pg.grant.pulse();
        }
        co_return;
      }
      default:
        K2_PANIC("DSM received non-DSM message type %u",
                 static_cast<unsigned>(msg.type));
    }
}

std::vector<std::uint64_t>
Dsm::reclaimFrom(KernelIdx dead, KernelIdx to)
{
    K2_ASSERT(dead < kernels_.size() && to < kernels_.size());
    K2_ASSERT(dead != to);
    // An untouched (born) record is a fixed point of what follows only
    // while the main kernel survives.
    K2_ASSERT(dead != 0);
    std::vector<std::uint64_t> changed;
    // Ascending page order: completing a stranded fault pulses its
    // grant event, and the pulse order decides wakeup FIFO order.
    for (std::uint64_t page = 0; page < pages_.size(); ++page) {
        Page &pg = pages_[page];
        bool sole = true;
        if (rac_) {
            // RAC: `to` inherits the pages `dead` last wrote
            // (restamped after the walk).
            if (pg.rac.lastWriter == dead)
                changed.push_back(page);
        } else {
            // The page stays with a third kernel that holds a copy, or
            // that is being granted a page nobody holds any more.
            coherence::Copies &e = pg.copies;
            bool held = false;
            bool granting = false;
            for (KernelIdx j = 0; j < kernels_.size(); ++j) {
                if (j == dead || j == to)
                    continue;
                held |= e[j] != Copy::I;
                granting |= pg.faults[j].outstanding;
            }
            sole = !held && !(granting && e[dead] == Copy::I &&
                              e[to] == Copy::I);
            if (dir_->reclaim(e, dead, to, !sole))
                changed.push_back(page);
        }
        // A fault of the inheritor waiting on a grant from the dead
        // kernel now owns the page; complete it locally.
        Fault &f = pg.faults[to];
        if (sole && f.outstanding && !f.grantArrived) {
            f.grantState = kind_ == ProtocolKind::ThreeState ? Copy::S
                                                             : Copy::E;
            f.awaiting = 0;
            f.grantArrived = true;
            pg.grant.pulse();
        }
        // The dead kernel's own fault is abandoned: it must not hold
        // up the survivors' faults on this page until it revives, nor
        // resend a stale request afterwards.
        Fault &fd = pg.faults[dead];
        if (fd.outstanding && !fd.abandoned) {
            fd.abandoned = true;
            fd.awaiting = 0;
            pg.settled.pulse();
        }
    }
    if (rac_) {
        const coherence::RacPage heir =
            rac_->reclaim(dead, to, !changed.empty());
        for (std::uint64_t page : changed)
            pages_[page].rac = heir;
    }
    return changed;
}

void
Dsm::registerMetrics(obs::MetricsRegistry &reg) const
{
    const std::string prefix = "os.dsm";
    reg.addCounter(prefix + ".messages", messages_);
    reg.addCounter(prefix + ".demotions", demotions_);
    // Only present when the recovery layer enabled retries, so
    // zero-fault metric snapshots keep their exact key set.
    if (retry_.timeout != 0)
        reg.addCounter(prefix + ".retries", retries_);
    for (KernelIdx k = 0; k < kernels_.size(); ++k) {
        const std::string kp = prefix + "." + kernels_[k]->name();
        const FaultStats &st = stats_[k];
        reg.addCounter(kp + ".faults", st.faults);
        reg.addHistogram(kp + ".fault_entry_us", st.localFaultUs);
        reg.addHistogram(kp + ".protocol_us", st.protocolUs);
        reg.addHistogram(kp + ".comm_us", st.commUs);
        reg.addHistogram(kp + ".service_us", st.serviceUs);
        reg.addHistogram(kp + ".exit_us", st.exitUs);
        reg.addHistogram(kp + ".total_us", st.totalUs);
        const soc::Mmu &mmu = *mmus_[k];
        reg.addGauge(kp + ".tlb.hits", [&mmu]() {
            return static_cast<double>(mmu.tlb().hits());
        });
        reg.addGauge(kp + ".tlb.misses", [&mmu]() {
            return static_cast<double>(mmu.tlb().misses());
        });
    }
    if (kind_ == ProtocolKind::Mesi || kind_ == ProtocolKind::Moesi) {
        const std::string pp =
            prefix + "." + coherence::protocolName(kind_);
        reg.addCounter(pp + ".forwards", forwards_);
        reg.addCounter(pp + ".writebacks", writebacks_);
    }
    if (rac_)
        rac_->registerMetrics(reg, prefix);
}

void
Dsm::snapState(snap::Io &io)
{
    io.check(kernels_.size(), "Dsm::kernels");
    for (sim::TrackId t : tracks_)
        io.check(t, "Dsm::track");
    io.pod(nextRegionPage_);
    io.pod(messages_);
    io.pod(demotions_);
    io.pod(retries_);
    io.pod(forwards_);
    io.pod(writebacks_);
    for (auto &mmu : mmus_)
        mmu->snapState(io);
    for (FaultStats &st : stats_) {
        io.pod(st.faults);
        st.localFaultUs.snapState(io);
        st.protocolUs.snapState(io);
        st.commUs.snapState(io);
        st.serviceUs.snapState(io);
        st.exitUs.snapState(io);
        st.totalUs.snapState(io);
    }
    // The page records. The table only grows (record() appends on
    // first touch), so restore drops the records grown after the
    // capture point; replay re-grows them identically.
    const std::uint64_t n = io.count(pages_.size());
    while (pages_.size() > n)
        pages_.pop_back();
    if (n > 0)
        record(n - 1);
    for (Page &pg : pages_) {
        io.pod(pg.demoted);
        for (KernelIdx k = 0; k < kernels_.size(); ++k)
            io.pod(pg.copies[k]);
        io.pod(pg.rac.lastWriter);
        io.pod(pg.rac.stamp);
        for (KernelIdx k = 0; k < kernels_.size(); ++k) {
            Fault &f = pg.faults[k];
            io.pod(f.outstanding);
            io.pod(f.upgrade);
            io.pod(f.raced);
            io.pod(f.grantArrived);
            io.pod(f.abandoned);
            io.pod(f.grantState);
            io.pod(f.awaiting);
            io.pod(f.serviceTime);
        }
        pg.grant.snapState(io);
        pg.settled.snapState(io);
    }
    if (rac_)
        rac_->snapState(io);
}

} // namespace os
} // namespace k2
