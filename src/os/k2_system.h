/**
 * @file
 * K2System: the whole K2 OS assembled on the simulated SoC.
 *
 * Construction boots the platform end to end:
 *  - builds the SoC from the (default OMAP4) configuration;
 *  - lays out the unified kernel address space (Fig. 4): shadow local
 *    region, main local region, global region;
 *  - boots the main kernel on the strong domain and the shadow kernel
 *    on the weak domain;
 *  - creates the DSM, the balloon drivers + meta-level manager (which
 *    initially own the entire global region), the interrupt router,
 *    the NightWatch machinery and the cross-ISA dispatcher;
 *  - wires both kernels' mailbox receive paths to dispatch DSM /
 *    NightWatch / balloon / free-redirect messages.
 *
 * The result presents the single system image of os::SystemImage.
 */

#ifndef K2_OS_K2_SYSTEM_H
#define K2_OS_K2_SYSTEM_H

#include <memory>
#include <ostream>

#include "sim/engine.h"
#include "fault/plan.h"
#include "kern/layout.h"
#include "kern/service.h"
#include "os/cross_isa.h"
#include "os/dsm.h"
#include "os/io_mapper.h"
#include "os/irq_router.h"
#include "os/meta_manager.h"
#include "os/nightwatch.h"
#include "os/reliable_mail.h"
#include "os/replica.h"
#include "os/system.h"

namespace k2 {

namespace fault {
class FaultInjector;
}

namespace os {

/**
 * What a caller varies per system: the platform, the coherence
 * protocol, the shadow replication degree and the fault plan. Every
 * other boot parameter (DSM span, memory layout, balloon watermark,
 * recovery timers) has one value in use and is a constant next to the
 * component that reads it.
 */
struct K2Config
{
    soc::SocConfig soc = soc::omap4Config();
    Dsm::Protocol dsmProtocol = Dsm::Protocol::TwoState;
    /**
     * Shadow-service replication degree. Shadowed requests always
     * route through the ReplicaGroup. 1 (the default) is the paper's
     * two-kernel K2: a group of one, with no vote traffic, no extra
     * track, DSM region or metric key, which loses quorum (degrading
     * to the strong domain) while its shadow is down. N >= 2 boots the
     * shadow kernel on N weak domains (the weak domain spec is cloned
     * for the extras), arms the recovery plane, spans the DSM across
     * every kernel, and adds leader serving, fan-out majority voting
     * and bully re-election on crash.
     */
    std::size_t replicas = 1;
    /**
     * Fault-injection schedule. An empty plan leaves the fault plane
     * and the recovery protocols entirely disarmed: no hooks, no extra
     * tracks or metrics -- the simulation is bit-identical to a build
     * without them.
     */
    fault::FaultPlan faults{};
};

class K2System : public SystemImage
{
  public:
    explicit K2System(K2Config cfg = {});
    ~K2System() override;

    /** @name SystemImage interface. @{ */
    const char *modelName() const override { return "K2"; }
    soc::Soc &soc() override { return *soc_; }
    kern::Kernel &kernelAt(soc::DomainId domain) override;
    std::vector<kern::Kernel *> kernels() override;
    kern::Kernel &mainKernel() override { return *kernels_[0]; }
    kern::Kernel &nightWatchKernel() override { return *kernels_[1]; }
    std::unique_ptr<SharedRegion>
    createSharedRegion(std::string name, std::uint64_t pages) override;
    kern::Thread *spawnNormal(kern::Process &proc, std::string name,
                              kern::Thread::Body body) override;
    kern::Thread *spawnNightWatch(kern::Process &proc, std::string name,
                                  kern::Thread::Body body) override;
    sim::Task<kern::PageRange>
    allocPages(kern::Thread &t, unsigned order,
               kern::Migrate migrate = kern::Migrate::Movable) override;
    sim::Task<void> freePages(kern::Thread &t,
                              kern::PageRange range) override;
    sim::Task<void> chargeCrossIsa(kern::Kernel &kern, soc::Core &core,
                                   std::uint64_t n) override;
    void registerMetrics(obs::MetricsRegistry &reg) override;
    void snapState(snap::Io &io) override;
    /** @} */

    /** @name K2 components. @{ */
    sim::Engine &ownedEngine() { return engine_; }
    kern::Kernel &shadowKernel() { return *kernels_[1]; }
    /** The DSM backing shared regions, spanning every kernel. */
    Dsm &dsm() { return *dsm_; }
    MetaLevelManager &meta() { return *meta_; }
    NightWatch &nightWatch() { return *nightWatch_; }
    IrqRouter &irqRouter() { return *irqRouter_; }
    CrossIsaDispatcher &crossIsa() { return *crossIsa_; }
    IoMapper &ioMapper() { return *ioMapper_; }
    const kern::AddressSpaceLayout &layout() const { return *layout_; }
    const kern::ServiceRegistry &services() const { return services_; }
    /** @} */

    /** The shadow replicas; never null (one replica is a group of
     *  one). */
    ReplicaGroup *replicaGroup() { return group_.get(); }

    /** @name Fault plane & recovery (null unless armed). @{ */
    bool recoveryArmed() const { return reliable_ != nullptr; }
    fault::FaultInjector *faultInjector() { return injector_.get(); }
    ReliableMail *reliableMail() { return reliable_.get(); }
    /** Configured replication degree (1 = unreplicated). */
    std::size_t replicas() const { return kernels_.size() - 1; }
    /** @} */

    /** Frees redirected to the peer kernel so far. */
    std::uint64_t remoteFrees() const { return remoteFrees_.value(); }

    /**
     * Render a human-readable snapshot of the whole OS -- kernels,
     * core power states, memory-block ownership, DSM and NightWatch
     * statistics -- for debugging and the examples.
     */
    void dumpState(std::ostream &os);

  private:
    sim::Task<void> dispatchMail(KernelIdx to, soc::Mail mail,
                                 soc::Core &core);
    kern::Kernel &kernelByIdx(KernelIdx k);

    sim::Engine engine_;
    std::unique_ptr<fault::FaultInjector> injector_;
    std::unique_ptr<soc::Soc> soc_;
    std::unique_ptr<kern::AddressSpaceLayout> layout_;
    /**
     * Every kernel, indexed by KernelIdx: main (strong domain), shadow
     * (weak domain), then shadow replicas 2..N on cloned weak domains
     * (replicas >= 2).
     */
    std::vector<std::unique_ptr<kern::Kernel>> kernels_;
    std::unique_ptr<Dsm> dsm_;
    std::unique_ptr<MetaLevelManager> meta_;
    std::unique_ptr<NightWatch> nightWatch_;
    std::unique_ptr<IrqRouter> irqRouter_;
    std::unique_ptr<CrossIsaDispatcher> crossIsa_;
    std::unique_ptr<IoMapper> ioMapper_;
    std::unique_ptr<ReliableMail> reliable_;
    std::unique_ptr<ReplicaGroup> group_;
    kern::ServiceRegistry services_;
    sim::Counter remoteFrees_;
};

} // namespace os
} // namespace k2

#endif // K2_OS_K2_SYSTEM_H
