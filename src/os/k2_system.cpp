#include "os/k2_system.h"

#include <algorithm>

#include "fault/injector.h"
#include "obs/metrics.h"
#include "sim/log.h"
#include "snap/io.h"

namespace k2 {
namespace os {

namespace {

/** Page blocks handed to each kernel at boot. */
constexpr std::size_t kInitialMainBlocks = 8;
constexpr std::size_t kInitialShadowBlocks = 2;
/** Local-region sizes in pages (rounded to 16 MB blocks). */
constexpr std::uint64_t kShadowLocalPages = 4096; //!< 16 MB.
constexpr std::uint64_t kMainLocalPages = 12288;  //!< 48 MB.
/**
 * DSM grant retry while recovery is armed; the timeout must exceed the
 * loaded fault round-trip including the peer core's wake latency
 * (~250 us worst case).
 */
constexpr RetryPolicy kDsmRetry{sim::usec(500), sim::msec(4)};
// A lost tracked mail is the ARQ's to resend: its first retransmit
// must fire before the DSM re-asks for the grant.
static_assert(ReliableMail::kRetry.timeout < kDsmRetry.timeout);

/** SharedRegion backed by the K2 DSM. */
class DsmSharedRegion : public SharedRegion
{
  public:
    DsmSharedRegion(std::string name, Dsm &dsm, kern::PageRange keys)
        : SharedRegion(std::move(name), keys.count), dsm_(dsm),
          keys_(keys)
    {}

    sim::Task<void>
    touch(kern::Kernel &kern, soc::Core &core, std::uint64_t page_idx,
          Access rw) override
    {
        K2_ASSERT(page_idx < keys_.count);
        co_await dsm_.access(kern, core, keys_.first + page_idx, rw);
    }

  private:
    Dsm &dsm_;
    kern::PageRange keys_;
};

} // namespace

K2System::K2System(K2Config cfg)
{
    const std::size_t replicas = std::max<std::size_t>(cfg.replicas, 1);
    if (replicas >= 2) {
        // Clone the weak domain for the extra shadow replicas; their
        // domain ids follow the configured domains.
        K2_ASSERT(replicas <= 15);
        K2_ASSERT(cfg.soc.domains.size() > soc::kWeakDomain);
        const soc::DomainSpec weak = cfg.soc.domains[soc::kWeakDomain];
        for (std::size_t i = 2; i <= replicas; ++i) {
            soc::DomainSpec d = weak;
            d.name = weak.name + std::to_string(i);
            cfg.soc.domains.push_back(d);
        }
    }
    const soc::DomainId firstExtraDomain = static_cast<soc::DomainId>(
        cfg.soc.domains.size() - (replicas - 1));

    soc_ = std::make_unique<soc::Soc>(engine_, std::move(cfg.soc));

    // The fault plane and the recovery protocols only exist when armed;
    // a zero-fault run takes exactly the pre-fault code paths. A
    // replicated system is always armed: replication *is* a recovery
    // protocol.
    const bool armed = !cfg.faults.empty() || replicas >= 2;
    for (const fault::FaultSpec &spec : cfg.faults.specs()) {
        if (spec.kind == fault::FaultKind::DomainCrash &&
            spec.domain == soc::kStrongDomain) {
            K2_FATAL("K2 cannot recover a crashed strong domain; "
                     "domain.crash must target a weak domain");
        }
    }
    if (armed) {
        injector_ =
            std::make_unique<fault::FaultInjector>(engine_, cfg.faults);
        soc_->attachFaultInjector(injector_.get());
    }

    std::vector<std::pair<std::string, std::uint64_t>> locals;
    locals.emplace_back("shadow", kShadowLocalPages);
    for (std::size_t i = 2; i <= replicas; ++i)
        locals.emplace_back("shadow" + std::to_string(i), kShadowLocalPages);
    locals.emplace_back("main", kMainLocalPages);
    layout_ = std::make_unique<kern::AddressSpaceLayout>(
        soc_->pageBytes(), soc_->numPages(), std::move(locals));

    kernels_.push_back(std::make_unique<kern::Kernel>(
        *soc_, soc::kStrongDomain, "main"));
    kernels_.push_back(std::make_unique<kern::Kernel>(
        *soc_, soc::kWeakDomain, "shadow"));
    for (std::size_t i = 2; i <= replicas; ++i) {
        kernels_.push_back(std::make_unique<kern::Kernel>(
            *soc_, firstExtraDomain + static_cast<soc::DomainId>(i - 2),
            "shadow" + std::to_string(i)));
    }
    for (auto &k : kernels_)
        k->boot();
    // Replica kernels draw pages from their own local region; the
    // global region stays under the two-kernel meta manager.
    for (std::size_t i = 2; i < kernels_.size(); ++i) {
        kernels_[i]->pageAllocator().addFreeRange(
            layout_->localOf(kernels_[i]->name()).pages);
    }

    kern::Kernel &main = *kernels_[0];
    kern::Kernel &shadow = *kernels_[1];
    const std::vector<kern::Kernel *> allKernels = kernels();

    if (armed) {
        reliable_ = std::make_unique<ReliableMail>(allKernels);
        reliable_->install();
    }

    // Shared regions span every kernel through the DSM. Grant retries
    // are on whenever recovery is armed (a replica owner can crash).
    dsm_ = std::make_unique<Dsm>(*soc_, allKernels, coherence::kOpMaxPages,
                                 cfg.dsmProtocol);
    if (armed)
        dsm_->setRetryPolicy(kDsmRetry);

    meta_ = std::make_unique<MetaLevelManager>(
        *soc_, std::array<kern::Kernel *, 2>{&main, &shadow},
        layout_->global().pages);
    meta_->bootstrapBlocks(0, kInitialMainBlocks);
    meta_->bootstrapBlocks(1, kInitialShadowBlocks);
    meta_->start();

    nightWatch_ = std::make_unique<NightWatch>(*soc_, main, shadow);
    nightWatch_->install();

    irqRouter_ = std::make_unique<IrqRouter>(*soc_, main, shadow);
    irqRouter_->install();

    // The paper's one shadow kernel is a group of one: same recovery
    // path as any replication degree, with no vote traffic.
    group_ = std::make_unique<ReplicaGroup>(*soc_, allKernels, *dsm_,
                                            *irqRouter_, injector_.get());

    if (armed) {
        // Repeated retransmission without an ack on any channel is the
        // group's crash-suspicion signal. Shadow->main silence also
        // counts: in the simulation a crashed domain's threads keep
        // executing (the crash is fail-silent at the communication
        // boundary), and their failing sends stand in for the keepalive
        // a real main kernel would run -- the probe loop then verifies
        // and charges the actual detection work. The weak end of the
        // silent channel names the suspected replica.
        reliable_->setSuspectHook([this](KernelIdx from, KernelIdx to) {
            const KernelIdx weak = (to != 0) ? to : from;
            if (weak != 0)
                group_->suspect(weak - 1);
        });
    }

    crossIsa_ = std::make_unique<CrossIsaDispatcher>(shadow);
    for (std::size_t i = 2; i < kernels_.size(); ++i)
        crossIsa_->addShadow(*kernels_[i]);

    ioMapper_ = std::make_unique<IoMapper>(
        *soc_, std::array<kern::Kernel *, 2>{&main, &shadow},
        *layout_);

    services_ = kern::defaultK2Registry();

    for (KernelIdx k = 0; k < kernels_.size(); ++k) {
        kernels_[k]->setMailHandler(
            [this, k](soc::Mail mail, soc::Core &core) {
                return dispatchMail(k, mail, core);
            });
    }
}

K2System::~K2System() = default;

kern::Kernel &
K2System::kernelAt(soc::DomainId domain)
{
    for (auto &k : kernels_) {
        if (k->domainId() == domain)
            return *k;
    }
    K2_PANIC("no kernel for domain %u", domain);
}

kern::Kernel &
K2System::kernelByIdx(KernelIdx k)
{
    return *kernels_.at(k);
}

std::vector<kern::Kernel *>
K2System::kernels()
{
    std::vector<kern::Kernel *> all;
    for (auto &k : kernels_)
        all.push_back(k.get());
    return all;
}

std::unique_ptr<SharedRegion>
K2System::createSharedRegion(std::string name, std::uint64_t pages)
{
    return std::make_unique<DsmSharedRegion>(std::move(name), *dsm_,
                                             dsm_->allocRegion(pages));
}

kern::Thread *
K2System::spawnNormal(kern::Process &proc, std::string name,
                      kern::Thread::Body body)
{
    return mainKernel().spawnThread(&proc, std::move(name),
                                    kern::ThreadKind::Normal,
                                    std::move(body));
}

kern::Thread *
K2System::spawnNightWatch(kern::Process &proc, std::string name,
                          kern::Thread::Body body)
{
    // Shadowed services run on the replica group: with N >= 2 every
    // request is fanned out to the live replicas for a majority vote.
    // It is served on the current leader; only quorum loss (for a
    // group of one: its replica is down) degrades to the strong
    // domain, at main-domain energy cost.
    group_->noteRequest();
    if (!group_->quorumHeld()) {
        group_->noteDegradedSpawn();
        return spawnNormal(proc, std::move(name), std::move(body));
    }
    const std::size_t leader = group_->servingReplica();
    if (leader == 0)
        return nightWatch_->spawn(proc, std::move(name), std::move(body));
    // Extension-domain leader: the NightWatch gating pair protocol
    // stays between main and the first shadow; the replica serves the
    // request as a plain thread at weak-domain energy cost.
    return group_->replicaKernel(leader).spawnThread(
        &proc, std::move(name), kern::ThreadKind::Normal,
        std::move(body));
}

sim::Task<kern::PageRange>
K2System::allocPages(kern::Thread &t, unsigned order,
                     kern::Migrate migrate)
{
    // Allocations are always served by the local instance (§6.2).
    co_return co_await t.kernel().allocPages(t, order, migrate);
}

sim::Task<void>
K2System::freePages(kern::Thread &t, kern::PageRange range)
{
    kern::Kernel &local = t.kernel();
    if (local.pageAllocator().isAllocated(range.first)) {
        co_await local.freePages(t, range);
        co_return;
    }
    // The thin wrapper (§6.2): the pages belong to another kernel's
    // allocator; redirect the free asynchronously via a hardware
    // message. The address-range check is a few instructions.
    kern::Kernel *owner = nullptr;
    for (kern::Kernel *k : kernels()) {
        if (k != &local && k->pageAllocator().isAllocated(range.first)) {
            owner = k;
            break;
        }
    }
    K2_ASSERT(owner != nullptr);
    kern::Kernel &peer = *owner;
    co_await t.exec(20);
    remoteFrees_.inc();
    unsigned order = 0;
    while ((1ull << order) < range.count)
        ++order;
    local.sendMail(peer.domainId(),
                   encodeMessage(MsgType::FreeRemote,
                                 static_cast<std::uint32_t>(range.first) &
                                     kPayloadMask,
                                 order));
}

void
K2System::dumpState(std::ostream &os)
{
    os << "==== K2 state at " << sim::formatTime(engine_.now())
       << " ====\n";
    for (kern::Kernel *k : kernels()) {
        auto &dom = k->domain();
        os << "kernel '" << k->name() << "' on domain '" << dom.name()
           << "':\n";
        for (std::size_t i = 0; i < dom.numCores(); ++i) {
            auto &c = dom.core(i);
            os << "  core " << c.id() << ": "
               << soc::powerStateName(c.state()) << ", "
               << c.hz() / 1000000 << " MHz, active "
               << sim::formatTime(c.activeTime()) << ", wakeups "
               << c.wakeups() << "\n";
        }
        os << "  runqueue depth " << k->scheduler().runqueueDepth()
           << ", context switches "
           << k->scheduler().contextSwitches() << ", free pages "
           << k->pageAllocator().freePages() << "\n";
    }
    os << "memory blocks: main "
       << meta_->blocksOwnedBy(MetaLevelManager::BlockOwner::Main)
       << ", shadow "
       << meta_->blocksOwnedBy(MetaLevelManager::BlockOwner::Shadow)
       << ", K2 "
       << meta_->blocksOwnedBy(MetaLevelManager::BlockOwner::Meta)
       << " of " << meta_->numBlocks() << "\n";
    os << "dsm: ";
    for (KernelIdx k = 0; k < dsm_->numKernels(); ++k) {
        os << dsm_->faultStats(k).faults.value() << " "
           << kernelByIdx(k).name() << " faults, ";
    }
    os << dsm_->messagesSent() << " messages, " << dsm_->pagesDemoted()
       << " pages demoted\n";
    if (group_->numReplicas() > 1) {
        os << "replicas: " << group_->liveReplicas() << "/"
           << group_->numReplicas() << " live, leader "
           << group_->leaderReplica() << ", term " << group_->term()
           << ", " << group_->elections() << " elections\n";
    }
    os << "nightwatch: " << nightWatch_->suspendsSent.value()
       << " suspends, " << nightWatch_->resumesSent.value()
       << " resumes\n";
    os << "irq routing: "
       << (irqRouter_->routedToWeak() ? "weak" : "strong") << " ("
       << irqRouter_->reroutes() << " reroutes)\n";
    for (soc::RailId r = 0; r < soc_->meter().numRails(); ++r) {
        os << "rail '" << soc_->meter().railName(r) << "': "
           << soc_->meter().energyUj(r) / 1000.0 << " mJ\n";
    }
}

sim::Task<void>
K2System::chargeCrossIsa(kern::Kernel &kern, soc::Core &core,
                         std::uint64_t n)
{
    co_await crossIsa_->charge(kern, core, n);
}

void
K2System::registerMetrics(obs::MetricsRegistry &reg)
{
    SystemImage::registerMetrics(reg);

    dsm_->registerMetrics(reg);

    reg.addCounter("os.nightwatch.suspends", nightWatch_->suspendsSent);
    reg.addCounter("os.nightwatch.resumes", nightWatch_->resumesSent);
    reg.addCounter("os.nightwatch.acks", nightWatch_->acksReceived);
    reg.addHistogram("os.nightwatch.ack_wait_us", nightWatch_->ackWaitUs);

    reg.addCounter("os.meta.pressure_events", meta_->pressureEvents);
    reg.addCounter("os.meta.peer_requests", meta_->peerRequests);
    static const char *const kKernelNames[2] = {"main", "shadow"};
    for (KernelIdx k = 0; k < 2; ++k) {
        const std::string bp =
            std::string("os.balloon.") + kKernelNames[k];
        BalloonDriver &b = meta_->balloon(k);
        reg.addCounter(bp + ".deflates", b.deflates);
        reg.addCounter(bp + ".inflates", b.inflates);
        reg.addCounter(bp + ".failed_inflates", b.failedInflates);
    }

    const IrqRouter &router = *irqRouter_;
    reg.addGauge("os.irq_router.reroutes", [&router]() {
        return static_cast<double>(router.reroutes());
    });
    const CrossIsaDispatcher &xisa = *crossIsa_;
    reg.addGauge("os.cross_isa.dispatches", [&xisa]() {
        return static_cast<double>(xisa.dispatches());
    });
    reg.addCounter("os.remote_frees", remoteFrees_);

    // Only when armed, so zero-fault runs keep the exact metric key
    // set they had before the fault plane existed.
    if (injector_)
        injector_->registerMetrics(reg, "fault.injected");
    if (reliable_)
        reliable_->registerMetrics(reg, "os.recovery.mail");
    group_->registerMetrics(reg);
}

void
K2System::snapState(snap::Io &io)
{
    // Order matters: the engine first (quiescence assertions, clock,
    // tracer), then hardware, then the kernels (whose restore verifies
    // the live thread table before anything looks threads up by tid),
    // then the process table, then the OS services.
    engine_.snapState(io);
    soc_->snapState(io);
    io.check(kernels_.size(), "K2System::kernels");
    for (auto &k : kernels_)
        k->snapState(io);
    SystemImage::snapState(io);
    dsm_->snapState(io);
    meta_->snapState(io);
    nightWatch_->snapState(io);
    irqRouter_->snapState(io);
    crossIsa_->snapState(io);
    ioMapper_->snapState(io);
    io.pod(remoteFrees_);

    // The fault plane and recovery protocols exist iff armed, which is
    // a property of the config -- structural.
    io.check(injector_ ? 1 : 0, "K2System::injector");
    if (injector_)
        injector_->snapState(io);
    io.check(reliable_ ? 1 : 0, "K2System::reliable");
    if (reliable_)
        reliable_->snapState(io);
    group_->snapState(io);
}

sim::Task<void>
K2System::dispatchMail(KernelIdx to, soc::Mail mail, soc::Core &core)
{
    if (reliable_ && !co_await reliable_->onReceive(to, mail, core))
        co_return; // Consumed ack or suppressed duplicate.
    const Message msg = decodeMessage(mail.word);
    switch (msg.type) {
      case MsgType::GetExclusive:
      case MsgType::PutExclusive:
        co_await dsm_->handleMail(to, mail, core);
        co_return;
      case MsgType::SuspendNw:
      case MsgType::AckSuspendNw:
      case MsgType::ResumeNw:
        co_await nightWatch_->handleMail(to, msg, core);
        co_return;
      case MsgType::Control:
        switch (ctlOp(msg.payload)) {
          case CtlOp::BalloonGive:
            co_await meta_->handleMail(to, msg, core);
            co_return;
          case CtlOp::MapCreate:
          case CtlOp::MapDestroy:
            co_await ioMapper_->handleMail(to, msg, core);
            co_return;
          case CtlOp::MailAck:
            co_return; // Handled by the reliable-mail shim above.
          case CtlOp::Heartbeat:
          case CtlOp::HeartbeatAck:
          case CtlOp::ReplicaReq:
          case CtlOp::ReplicaRep:
          case CtlOp::Election:
          case CtlOp::ElectionOk:
          case CtlOp::Coordinator:
            co_await group_->handleMail(to, mail, core);
            co_return;
        }
        K2_PANIC("unknown control op in mail 0x%x", mail.word);
      case MsgType::BalloonDone:
        co_await meta_->handleMail(to, msg, core);
        co_return;
      case MsgType::FreeRemote: {
        kern::Kernel &kern = kernelByIdx(to);
        const std::uint64_t work =
            kern.pageAllocator().free(msg.payload);
        co_await core.exec(kern::Kernel::kernelInstructions(core, work));
        co_return;
      }
    }
    K2_PANIC("unknown message type in mail 0x%x", mail.word);
}

} // namespace os
} // namespace k2
