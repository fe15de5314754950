#include "os/system.h"

#include "obs/metrics.h"
#include "sim/log.h"
#include "kern/buddy.h"
#include "kern/sched.h"
#include "snap/io.h"

namespace k2 {
namespace os {

kern::Process &
SystemImage::createProcess(std::string name)
{
    processes_.push_back(
        std::make_unique<kern::Process>(nextPid_++, std::move(name)));
    return *processes_.back();
}

void
SystemImage::registerMetrics(obs::MetricsRegistry &reg)
{
    sim::Engine &eng = engine();
    reg.addGauge("sim.events_dispatched", [&eng]() {
        return static_cast<double>(eng.eventsDispatched());
    });
    reg.addGauge("sim.pending_events", [&eng]() {
        return static_cast<double>(eng.pendingEvents());
    });
    reg.addGauge("sim.pool_capacity", [&eng]() {
        return static_cast<double>(eng.poolCapacity());
    });
    reg.addGauge("sim.spans.recorded", [&eng]() {
        return static_cast<double>(eng.tracer().spanEvents().size());
    });
    reg.addGauge("sim.spans.dropped", [&eng]() {
        return static_cast<double>(eng.tracer().spansDropped());
    });

    soc().registerMetrics(reg);

    for (kern::Kernel *k : kernels()) {
        const std::string kp = "kern." + k->name();
        kern::Scheduler &sched = k->scheduler();
        reg.addGauge(kp + ".sched.context_switches", [&sched]() {
            return static_cast<double>(sched.contextSwitches());
        });
        kern::BuddyAllocator &buddy = k->pageAllocator();
        reg.addCounter(kp + ".buddy.alloc_calls", buddy.allocCalls);
        reg.addCounter(kp + ".buddy.free_calls", buddy.freeCalls);
        reg.addCounter(kp + ".buddy.failed_allocs", buddy.failedAllocs);
    }
}

void
SystemImage::snapState(snap::Io &io)
{
    io.pod(nextPid_);

    // Process table: prune to the captured prefix. Processes created
    // after the capture point belong to post-capture workload episodes
    // whose threads have all finished and been reaped.
    std::uint64_t n = io.count(processes_.size());
    if (io.restoring()) {
        K2_ASSERT(n <= processes_.size());
        processes_.resize(static_cast<std::size_t>(n));
    }
    for (auto &p : processes_)
        p->snapState(io);
}

} // namespace os
} // namespace k2
