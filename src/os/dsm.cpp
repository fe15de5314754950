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
    : soc_(soc), kernels_(std::move(kernels)), idx_(kernels_),
      kind_(protocol), numPages_(num_pages), stats_(kernels_.size())
{
    K2_ASSERT(kernels_.size() >= 2 &&
              kernels_.size() <= coherence::kMaxKernels);
    for (kern::Kernel *k : kernels_) {
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

void
Dsm::send(KernelIdx from, KernelIdx to, MsgType type,
          std::uint32_t payload)
{
    messages_.inc();
    kernels_[from]->sendMail(kernels_[to]->domainId(),
                             encodeMessage(type, payload, 0));
}

void
Dsm::ask(Page &pg, KernelIdx k, std::uint64_t page, bool exclusive)
{
    Fault &f = pg.faults[k];
    f.awaiting = rac_ ? coherence::RacState::targets(k, pg.rac)
                      : dir_->targets(pg.copies, k, exclusive);
    const std::uint32_t req = coherence::packOp(
        rac_ ? ReqOp::Acq : exclusive ? ReqOp::GetX : ReqOp::GetS, page);
    for (KernelIdx j = 0; j < kernels_.size(); ++j) {
        if ((f.awaiting & Directory::bit(j)) != 0)
            send(k, j, MsgType::GetExclusive, req);
    }
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
    // replica group revives it (or reclaims the page from it).
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
        K2_TRACE(soc_.engine(), sim::TraceCat::Dsm,
                 "%s retries %s for page %llu",
                 kernels_[k]->name().c_str(), rac_ ? "Acq" : "Get",
                 static_cast<unsigned long long>(page));
        // Ask the page's current holders (RAC: its writer), which a
        // reclaim may have changed since the original request; none
        // left means the reclaim passed the page to this kernel.
        ask(pg, k, page, exclusive);
        if (f.awaiting == 0)
            break;
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
// The fault and service paths (every protocol).
// ---------------------------------------------------------------------

sim::Task<void>
Dsm::access(kern::Kernel &kern, soc::Core &core, std::uint64_t page,
            Access rw)
{
    const KernelIdx k = idx_.at(kern.domainId());
    K2_ASSERT(kernels_[k] == &kern);
    Page &pg = record(page);
    Fault &f = pg.faults[k];
    const KernelCosts &c = costsFor(strong_[k]);
    // The two-state protocol has no read copies: every fault asks for
    // exclusivity.
    const bool exclusive =
        kind_ == ProtocolKind::TwoState || rw == Access::Write;

    // Address translation through the local MMU at the page's current
    // mapping grain.
    const auto grain =
        pg.demoted ? soc::MapGrain::Page4K : soc::MapGrain::Section1M;
    const sim::Duration walk = mmus_[k]->translate(page, grain);
    if (walk)
        co_await core.execTime(walk);

    for (;;) {
        // Serialise with a fault already in flight on this kernel (and,
        // under RAC or beyond two kernels, on any kernel).
        while (f.outstanding || (serialised() && faulting(pg) != 0)) {
            core.pinActive();
            co_await pg.settled.wait();
            core.unpinActive();
        }
        if (rac_ ? rac_->permits(k, pg.rac, rw)
                 : Directory::permits(pg.copies[k], rw)) {
            if (rw == Access::Write && rac_) {
                // Owner write: append the modified line addresses to
                // this domain's log through the coherent region.
                rac_->append(k, pg.rac);
                co_await core.execTime(soc_.costs().busAccess);
            } else if (rw == Access::Write) {
                Directory::write(pg.copies, k); // Silent E->M upgrade.
            }
            co_return;
        }

        // ---- Full fault path (Table 5). ----
        stats_[k].faults.inc();
        if (rac_) {
            K2_TRACE(soc_.engine(), sim::TraceCat::Dsm,
                     "%s acquires page %llu (%s)",
                     kernels_[k]->name().c_str(),
                     static_cast<unsigned long long>(page),
                     rw == Access::Write ? "W" : "R");
        } else {
            K2_TRACE(soc_.engine(), sim::TraceCat::Dsm,
                     "%s %s-faults on page %llu (%s)",
                     kernels_[k]->name().c_str(),
                     coherence::protocolName(kind_),
                     static_cast<unsigned long long>(page),
                     rw == Access::Write ? "W" : "R");
        }
        f.outstanding = true;
        f.serviceTime = 0;
        // An upgrade fault holds a valid (read) copy while requesting
        // exclusivity; a concurrent exclusive request invalidates it
        // and marks the race. A RAC record holds no copies.
        f.upgrade = pg.copies[k] != Copy::I;
        f.raced = false;

        if (!rac_ && !pg.demoted) {
            // Replacing the local large-grain mapping with 4 KB
            // entries: one page-table update on the faulting side. The
            // remote side's mapping is rewritten when it services or
            // faults next; its cost is folded into the protection
            // updates charged there. RAC never demotes: its
            // invalidation is line-grain, through the log.
            pg.demoted = true;
            demotions_.inc();
            co_await core.execTime(mmus_[k]->protectionUpdate(page));
        }

        const sim::Time t0 = soc_.engine().now();
        sim::Duration entry = c.faultEntry;
        // Read sharing needs read/write distinction from the MMU; weak
        // kernels pay the cascaded-MMU tracking penalty (§6.3). RAC's
        // push-based invalidation never write-protects for reads.
        if (coherence::readSharing(kind_) && !strong_[k])
            entry += mmus_[k]->readTrackPenalty();
        co_await core.execTime(entry);
        const sim::Time t1 = soc_.engine().now();

        co_await core.execTime(c.protocolExec);
        const sim::Time t2 = soc_.engine().now();

        ask(pg, k, page, exclusive);
        co_await awaitGrant(pg, k, core, page, exclusive);
        if (f.abandoned) {
            f = Fault{};
            pg.settled.pulse();
            continue;
        }
        const sim::Time t3 = soc_.engine().now();

        if (rac_) {
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
                co_await core.execTime(pend *
                                       coherence::kRacLineInvalidate);
                soc_.engine().spanComplete(d0, tracks_[k], "drain");
            }
        }

        // Exit and refill; the new copy's mapping is rewritten, except
        // for a RAC read, which takes no ownership.
        sim::Duration exit = c.exitRefill;
        if (!rac_ || rw == Access::Write)
            exit += mmus_[k]->protectionUpdate(page);
        co_await core.execTime(exit);
        const sim::Time t4 = soc_.engine().now();

        // Completion. The grant becomes the copy, unless a concurrent
        // exclusive request invalidated it while we waited: then retry.
        // A RAC write takes ownership, logging the write that triggered
        // the acquire; a RAC read retries to re-check freshness, as the
        // writer may have released again while we drained.
        bool done;
        if (rac_) {
            done = rw == Access::Write;
            if (done)
                rac_->append(k, pg.rac);
        } else {
            done = !f.raced;
            if (done)
                Directory::complete(pg.copies, k, exclusive, f.grantState);
        }
        f.outstanding = false;
        f.upgrade = false;
        pg.settled.pulse();
        recordFault(k, f, t0, t1, t2, t3, t4);
        if (done)
            co_return;
    }
}

sim::Task<void>
Dsm::service(KernelIdx t, KernelIdx req, std::uint64_t page, ReqOp op)
{
    K2_ASSERT((op == ReqOp::Acq) == (rac_ != nullptr));
    const bool exclusive = op == ReqOp::GetX;
    Page &pg = record(page);
    Fault &f = pg.faults[t];
    co_await bottomHalf(t);

    // Serialise with a local fault in flight, except for a concurrent
    // upgrade race, which we resolve by invalidating the local copy
    // and letting the local fault retry. A RAC release changes no
    // state, so it waits for nothing.
    while (!rac_ && f.outstanding && !f.upgrade)
        co_await pg.settled.wait();

    soc::Core &core = serviceCore(t);
    if (!core.awake())
        co_await core.ensureAwake();

    // A release flushes the page's dirty lines through the coherent
    // region so the acquirer's drain observes them. An invalidation
    // service remaps the page and moves a dirty copy's data: written
    // back, or under MOESI forwarded cache-to-cache through the
    // coherent region.
    const sim::Time t_start = soc_.engine().now();
    soc::CoherenceDomain &dom = kernels_[t]->domain();
    sim::Duration cost = costsFor(strong_[t]).serviceBase;
    const char *data = "clean";
    if (rac_) {
        cost += dom.flushTime(soc_.pageBytes());
    } else {
        cost += mmus_[t]->protectionUpdate(page);
        if (Directory::dirty(pg.copies[t])) {
            if (kind_ == ProtocolKind::Moesi) {
                cost += dom.flushTime(soc_.pageBytes()) / 2;
                forwards_.inc();
                data = "forward";
            } else {
                cost += dom.flushTime(soc_.pageBytes());
                writebacks_.inc();
                data = "writeback";
            }
        }
    }
    co_await core.execTime(cost);

    const RepOp grant =
        rac_ ? RepOp::GrantX : dir_->serve(pg.copies, t, exclusive);
    if (exclusive && f.outstanding && f.upgrade)
        f.raced = true;
    pg.faults[req].serviceTime = soc_.engine().now() - t_start;
    soc_.engine().spanComplete(t_start, tracks_[t], "service");
    if (rac_) {
        K2_TRACE(soc_.engine(), sim::TraceCat::Dsm,
                 "%s releases page %llu", kernels_[t]->name().c_str(),
                 static_cast<unsigned long long>(page));
    } else {
        K2_TRACE(soc_.engine(), sim::TraceCat::Dsm,
                 "%s services page %llu (%s, %s)",
                 kernels_[t]->name().c_str(),
                 static_cast<unsigned long long>(page),
                 exclusive ? "GetX" : "GetS", data);
    }
    send(t, req, MsgType::PutExclusive, coherence::packOp(grant, page));
}

// ---------------------------------------------------------------------
// Mail dispatch, recovery, metrics, snapshots.
// ---------------------------------------------------------------------

sim::Task<void>
Dsm::handleMail(KernelIdx to, soc::Mail mail, soc::Core &core)
{
    const Message msg = decodeMessage(mail.word);
    const KernelIdx from = idx_.at(mail.from);
    const std::uint64_t page = coherence::pageOf(msg.payload);
    const std::uint32_t op = coherence::opOf(msg.payload);
    switch (msg.type) {
      case MsgType::GetExclusive:
        // Service as a separate task so the mailbox ISR can keep
        // draining (the main kernel's bottom-half behaviour); a weak
        // kernel's zero deferral makes it effectively immediate.
        soc_.engine().spawn(
            service(to, from, page, static_cast<ReqOp>(op)));
        co_return;
      case MsgType::PutExclusive: {
        // Grant: wake the spinning requester once every asked kernel
        // has answered.
        co_await core.execTime(soc_.costs().busAccess);
        Page &pg = record(page);
        Fault &f = pg.faults[to];
        f.grantState = Directory::granted(static_cast<RepOp>(op));
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
        // kernel now owns the page; complete it locally with the copy
        // state the reclaim gave (RAC records hold none).
        Fault &f = pg.faults[to];
        if (sole && f.outstanding && !f.grantArrived) {
            f.grantState = pg.copies[to];
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
