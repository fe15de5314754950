/**
 * @file
 * google-benchmark microbenchmarks of the simulator's own hot paths:
 * event dispatch, coroutine task spawn/await, sleep/resume chains, a
 * core's busy period, buddy-allocator operations, and TLB lookups. These bound how fast
 * the paper's experiments simulate (host-side performance, not
 * modelled time).
 *
 * This binary replaces global operator new/delete with counting
 * versions, so every engine benchmark reports an "allocs/op" counter:
 * heap allocations per iteration. The pooled event core is expected to
 * be allocation-free on the dispatch, sleep/resume and core busy-period
 * paths; that is asserted hard (abort) at the end of BM_SleepResume
 * and BM_CoreBusyPeriod, not just reported.
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "sim/engine.h"
#include "sim/random.h"
#include "sim/sketch.h"
#include "snap/snapshot.h"
#include "soc/config.h"
#include "soc/core.h"
#include "soc/mmu.h"
#include "soc/power.h"
#include "kern/buddy.h"
#include "kern/kernel.h"
#include "os/k2_system.h"
#include "os/messages.h"
#include "os/reliable_mail.h"
#include "os/replica.h"
#include "workloads/benchmarks.h"
#include "workloads/episode.h"
#include "workloads/fleet.h"
#include "workloads/testbed.h"

// ---------------------------------------------------------------------
// Allocation-counting hook: replaces the global allocation functions
// for this binary. Only the count of allocations matters (frees are
// not tracked); relaxed atomics keep the hook cheap.
// ---------------------------------------------------------------------

namespace {

std::atomic<std::uint64_t> g_allocCount{0};

std::uint64_t
allocCount()
{
    return g_allocCount.load(std::memory_order_relaxed);
}

void *
countedAlloc(std::size_t size)
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    void *p = std::aligned_alloc(static_cast<std::size_t>(align),
                                 (size + static_cast<std::size_t>(align) - 1) &
                                     ~(static_cast<std::size_t>(align) - 1));
    if (!p)
        throw std::bad_alloc();
    return p;
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace {

using namespace k2;

/** Attach an allocations-per-iteration counter to @p state. */
void
reportAllocs(benchmark::State &state, std::uint64_t before)
{
    const auto iters = static_cast<double>(state.iterations());
    state.counters["allocs/op"] = benchmark::Counter(
        static_cast<double>(allocCount() - before) /
        (iters > 0 ? iters : 1));
}

/** Abort unless 1024 more steps of @p eng allocate nothing. */
void
requireAllocFree(sim::Engine &eng, const char *path)
{
    const std::uint64_t before = allocCount();
    for (int i = 0; i < 1024; ++i)
        eng.runOne();
    const std::uint64_t leaked = allocCount() - before;
    if (leaked != 0) {
        std::fprintf(stderr,
                     "FATAL: %s performed %llu heap allocations over 1024 "
                     "engine steps (expected 0)\n",
                     path, static_cast<unsigned long long>(leaked));
        std::abort();
    }
}

void
BM_EngineEventDispatch(benchmark::State &state)
{
    sim::Engine eng;
    std::uint64_t sink = 0;
    // Warm the pool and queue storage so the timed region measures
    // steady-state behaviour.
    eng.after(sim::nsec(1), [&sink]() { ++sink; });
    eng.runOne();
    const std::uint64_t allocs0 = allocCount();
    for (auto _ : state) {
        eng.after(sim::nsec(1), [&sink]() { ++sink; });
        eng.runOne();
    }
    reportAllocs(state, allocs0);
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EngineEventDispatch);

sim::Task<void>
trivialTask(int *out)
{
    ++*out;
    co_return;
}

void
BM_TaskSpawnAndRun(benchmark::State &state)
{
    sim::Engine eng;
    int sink = 0;
    eng.spawn(trivialTask(&sink));
    eng.run();
    const std::uint64_t allocs0 = allocCount();
    for (auto _ : state) {
        eng.spawn(trivialTask(&sink));
        eng.run();
    }
    reportAllocs(state, allocs0);
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_TaskSpawnAndRun);

sim::Task<void>
sleepLoop(sim::Engine &eng, const bool *stop, std::uint64_t *laps)
{
    while (!*stop) {
        co_await eng.sleep(sim::nsec(1));
        ++*laps;
    }
}

/**
 * The dominant operation in every experiment: an already-running
 * coroutine sleeping and being resumed by the event loop. Each
 * iteration is one sleep -> dispatch -> resume cycle; the pooled
 * engine must do this with zero heap allocations (hard-asserted
 * below).
 */
void
BM_SleepResume(benchmark::State &state)
{
    sim::Engine eng;
    bool stop = false;
    std::uint64_t laps = 0;
    eng.spawn(sleepLoop(eng, &stop, &laps));
    // Start the coroutine; it parks on its first sleep.
    eng.runOne();
    const std::uint64_t allocs0 = allocCount();
    for (auto _ : state)
        eng.runOne(); // one sleep/resume cycle
    reportAllocs(state, allocs0);

    // Hard assertion: the sleep/resume fast path is allocation-free.
    requireAllocFree(eng, "sleep/resume path");

    stop = true;
    eng.runOne(); // let the coroutine observe stop and finish
    benchmark::DoNotOptimize(laps);
}
BENCHMARK(BM_SleepResume);

/** Timer churn as device models do it: arm, cancel, re-arm. */
void
BM_TimerArmCancel(benchmark::State &state)
{
    sim::Engine eng;
    std::uint64_t sink = 0;
    sim::EventId pending = eng.after(sim::usec(5), [&sink]() { ++sink; });
    const std::uint64_t allocs0 = allocCount();
    for (auto _ : state) {
        eng.cancel(pending);
        pending = eng.after(sim::usec(5), [&sink]() { ++sink; });
    }
    reportAllocs(state, allocs0);
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_TimerArmCancel);

sim::Task<void>
chainedTask(sim::Engine &eng, int depth)
{
    if (depth > 0)
        co_await chainedTask(eng, depth - 1);
}

void
BM_TaskAwaitChain(benchmark::State &state)
{
    sim::Engine eng;
    for (auto _ : state) {
        eng.spawn(chainedTask(eng, 64));
        eng.run();
    }
}
BENCHMARK(BM_TaskAwaitChain);

sim::Task<void>
busyLoop(soc::Core &core, const bool *stop)
{
    while (!*stop)
        co_await core.exec(150);
}

/**
 * One busy period on a core, as the many short compute slices of
 * background work cost it: back-to-back exec(150) on the strong core
 * with the default 5 s inactive timeout. Each iteration is one sleep
 * dispatch plus the Active -> Idle -> Active bookkeeping, which leaves
 * the inactive timer queued instead of cancelling and re-arming it.
 * The path must not allocate (hard-asserted below). Past 5 s of
 * simulated time the thread-free core's deadline trails by the 100 us
 * interrupt re-gate timeout, so about one step in 230 is that timer
 * moving on.
 */
void
BM_CoreBusyPeriod(benchmark::State &state)
{
    sim::Engine eng;
    soc::EnergyMeter meter(eng);
    const soc::SocConfig cfg = soc::omap4Config();
    const soc::RailId rail = meter.addRail("strong");
    soc::Core core(eng, meter, rail, cfg.domains[soc::kStrongDomain].core,
                   cfg.costs, 0, soc::kStrongDomain);
    bool stop = false;
    eng.spawn(busyLoop(core, &stop));
    // Start the loop and warm the event queue's storage, so the timed
    // region measures steady state.
    for (int i = 0; i < 1024; ++i)
        eng.runOne();
    const std::uint64_t allocs0 = allocCount();
    for (auto _ : state)
        eng.runOne(); // one busy period
    reportAllocs(state, allocs0);
    requireAllocFree(eng, "core busy period");

    stop = true;
    eng.run(); // finish the loop and let the core gate
}
BENCHMARK(BM_CoreBusyPeriod);

void
BM_BuddyAllocFree(benchmark::State &state)
{
    kern::BuddyAllocator buddy("bench", 0, 16 * 4096);
    buddy.addFreeRange(kern::PageRange{0, 16 * 4096});
    const auto order = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        auto r = buddy.alloc(order, kern::Migrate::Movable);
        buddy.free(r->range.first);
    }
}
BENCHMARK(BM_BuddyAllocFree)->Arg(0)->Arg(4)->Arg(8);

void
BM_BuddyReclaimDonate(benchmark::State &state)
{
    kern::BuddyAllocator buddy("bench", 0, 16 * 4096);
    buddy.addFreeRange(kern::PageRange{0, 16 * 4096});
    for (auto _ : state) {
        auto res = buddy.reclaimRange(kern::PageRange{0, 4096});
        benchmark::DoNotOptimize(res.ok);
        buddy.addFreeRange(kern::PageRange{0, 4096});
    }
}
BENCHMARK(BM_BuddyReclaimDonate);

/**
 * Host-side cost of one ARQ round trip on the recovery plane: a
 * tracked send through the reliable-mail shim (stamp, inflight entry,
 * retransmit timer), hardware mailbox delivery, the receiver's ISR and
 * ack mail, and the sender's ack handling / timer cancellation --
 * including the full event drain back to quiescence.
 */
void
BM_ReliableMailRoundtrip(benchmark::State &state)
{
    sim::Engine eng;
    soc::SocConfig cfg = soc::omap4Config();
    cfg.costs.inactiveTimeout = 0;
    soc::Soc soc(eng, cfg);
    kern::Kernel main_k(soc, soc::kStrongDomain, "main");
    kern::Kernel shadow_k(soc, soc::kWeakDomain, "shadow");
    main_k.boot();
    shadow_k.boot();

    os::ReliableMail mail({&main_k, &shadow_k});
    mail.install();
    std::uint64_t delivered = 0;
    const auto attach = [&mail, &delivered](kern::Kernel &k,
                                            os::KernelIdx idx) {
        k.setMailHandler(
            [&mail, &delivered, idx](soc::Mail m, soc::Core &core)
                -> sim::Task<void> {
                if (co_await mail.onReceive(idx, m, core))
                    ++delivered;
            });
    };
    attach(main_k, 0);
    attach(shadow_k, 1);

    const std::uint32_t word =
        os::encodeMessage(os::MsgType::GetExclusive, 42, 0);
    main_k.sendMail(soc::kWeakDomain, word);
    eng.run();
    for (auto _ : state) {
        main_k.sendMail(soc::kWeakDomain, word);
        eng.run();
    }
    if (delivered !=
        static_cast<std::uint64_t>(state.iterations()) + 1) {
        std::fprintf(stderr,
                     "FATAL: reliable mail delivered %llu of %llu\n",
                     static_cast<unsigned long long>(delivered),
                     static_cast<unsigned long long>(
                         state.iterations() + 1));
        std::abort();
    }
    benchmark::DoNotOptimize(delivered);
}
BENCHMARK(BM_ReliableMailRoundtrip);

/**
 * Host-side cost of one replicated-shadow vote round at N=3: the
 * coordinator fans a tracked ReplicaReq out to all three replicas,
 * each answers with an untracked digest ballot, the round closes on
 * the vote timer, and the event queue drains back to quiescence.
 * Bounds how much --replicas=3 slows a sweep cell per shadowed
 * request (host time; the modelled cost is the ablation's job).
 */
void
BM_ReplicaVoteRoundtrip(benchmark::State &state)
{
    os::K2Config cfg;
    cfg.replicas = 3;
    auto tb = wl::Testbed::makeK2(cfg);
    tb.engine().run();
    os::ReplicaGroup &group = *tb.k2()->replicaGroup();
    for (auto _ : state) {
        group.noteRequest();
        tb.engine().run();
    }
    const auto iters = static_cast<std::uint64_t>(state.iterations());
    if (group.requests() != iters ||
        group.votesReceived() != 3 * iters || group.votesAbsent() != 0) {
        std::fprintf(stderr,
                     "FATAL: vote rounds broke: %llu reqs, %llu votes, "
                     "%llu absent\n",
                     static_cast<unsigned long long>(group.requests()),
                     static_cast<unsigned long long>(
                         group.votesReceived()),
                     static_cast<unsigned long long>(
                         group.votesAbsent()));
        std::abort();
    }
    benchmark::DoNotOptimize(group.votesReceived());
}
BENCHMARK(BM_ReplicaVoteRoundtrip);

/**
 * Host-side cost of one DSM write fault round-trip (write ping-pong
 * between the kernels, so every iteration takes the full fault path:
 * fault entry, protocol messages, remote service, grant, exit). One
 * instance per coherence protocol bounds how the zoo members differ
 * in *simulation* throughput -- the modelled latencies are
 * table5_dsm_fault's job.
 */
void
dsmFaultLoop(benchmark::State &state, os::coherence::ProtocolKind proto)
{
    os::K2Config cfg;
    cfg.soc.costs.inactiveTimeout = 0;
    cfg.dsmProtocol = proto;
    os::K2System sys(cfg);
    auto &proc = sys.createProcess("bench");

    std::uint64_t completed = 0;
    int round = 0;
    for (auto _ : state) {
        kern::Kernel &kern = (round++ % 2 == 0) ? sys.shadowKernel()
                                                : sys.mainKernel();
        kern.spawnThread(&proc, "f", kern::ThreadKind::Normal,
                         [&](kern::Thread &t) -> sim::Task<void> {
                             co_await sys.dsm().access(
                                 t.kernel(), t.core(), 1,
                                 os::Access::Write);
                             ++completed;
                         });
        sys.ownedEngine().run();
    }
    if (completed != static_cast<std::uint64_t>(state.iterations())) {
        std::fprintf(stderr, "FATAL: %s: %llu of %llu faults completed\n",
                     os::coherence::protocolName(proto),
                     static_cast<unsigned long long>(completed),
                     static_cast<unsigned long long>(state.iterations()));
        std::abort();
    }
    benchmark::DoNotOptimize(completed);
}

#define K2_DSM_FAULT_BENCH(name, kind)                                  \
    void BM_DsmFault_##name(benchmark::State &state)                    \
    {                                                                   \
        dsmFaultLoop(state, os::coherence::ProtocolKind::kind);         \
    }                                                                   \
    BENCHMARK(BM_DsmFault_##name)

K2_DSM_FAULT_BENCH(2state, TwoState);
K2_DSM_FAULT_BENCH(3state, ThreeState);
K2_DSM_FAULT_BENCH(mesi, Mesi);
K2_DSM_FAULT_BENCH(moesi, Moesi);
K2_DSM_FAULT_BENCH(rac, Rac);

#undef K2_DSM_FAULT_BENCH

void
BM_TlbLookup(benchmark::State &state)
{
    soc::Tlb tlb(32);
    std::uint64_t tag = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(tlb.access(tag++ % 48));
}
BENCHMARK(BM_TlbLookup);

// ---------------------------------------------------------------------
// Warm-state snapshot/fork (src/snap/). BM_TestbedBoot is the cost the
// boot-once sweep mode amortises away; BM_SnapshotFork is what each
// warm cell pays instead. The fork : boot ratio is the headline number
// for the warm sweep mode (target: fork <= 10% of boot).
// ---------------------------------------------------------------------

/** Full cold boot: two kernels, DSM regions, mkfs on the ramdisk. */
void
BM_TestbedBoot(benchmark::State &state)
{
    for (auto _ : state) {
        auto tb = wl::Testbed::makeK2();
        tb.engine().run();
        benchmark::DoNotOptimize(tb.engine().now());
    }
}
BENCHMARK(BM_TestbedBoot)->Unit(benchmark::kMillisecond);

/**
 * Boot plus one discarded warm-up episode: the full provisioning cost
 * a cold sweep cell pays before its measured episode, and the
 * denominator for the fork headline (BM_SnapshotFork <= 10% of this).
 * The warm-up is the fig. 6b filesystem workload at its middle size
 * (256 KB files), the kind of cell the warm pool serves.
 */
void
BM_TestbedBootWarm(benchmark::State &state)
{
    for (auto _ : state) {
        auto tb = wl::Testbed::makeK2();
        tb.engine().run();
        (void)wl::runEpisodeWarm(tb.sys(), tb.proc(), "ext2",
                                 wl::ext2Sync(tb.fs(), 256 * 1024), 0);
        benchmark::DoNotOptimize(tb.engine().now());
    }
}
BENCHMARK(BM_TestbedBootWarm)->Unit(benchmark::kMillisecond);

/** Serialize a quiesced testbed into an in-memory image. */
void
BM_SnapshotCapture(benchmark::State &state)
{
    auto tb = wl::Testbed::makeK2();
    tb.engine().run();
    std::uint64_t bytes = 0;
    for (auto _ : state) {
        snap::Snapshot image = snap::Snapshot::of(tb);
        bytes = image.sizeBytes();
        benchmark::DoNotOptimize(image);
    }
    state.counters["image_bytes"] =
        benchmark::Counter(static_cast<double>(bytes));
}
BENCHMARK(BM_SnapshotCapture)->Unit(benchmark::kMillisecond);

/**
 * Rewind a dirty testbed to its post-boot image: the per-cell cost of
 * the warm sweep path. Each iteration dirties the instance with an
 * episode (untimed) so the restore always starts from post-episode
 * state, exactly like a sweep cell. The testbed stays synced with the
 * image, so every restore is a delta restore: its cost follows what
 * the episode wrote. A DMA episode writes buddy metadata and service
 * state but no disk block; the ext2 variant also rewrites the blocks
 * its files landed in.
 */
void
snapshotFork(benchmark::State &state, const char *name,
             wl::Workload (*body)(wl::Testbed &))
{
    auto tb = wl::Testbed::makeK2();
    tb.engine().run();
    const snap::Snapshot image = snap::Snapshot::of(tb);
    for (auto _ : state) {
        state.PauseTiming();
        (void)wl::runEpisodeWarm(tb.sys(), tb.proc(), name, body(tb));
        state.ResumeTiming();
        image.restore(tb);
        benchmark::DoNotOptimize(tb.engine().now());
    }
}

void
BM_SnapshotFork(benchmark::State &state)
{
    snapshotFork(state, "dma", [](wl::Testbed &tb) {
        return wl::dmaCopy(tb.dma(), 4096, 64 * 1024);
    });
}
BENCHMARK(BM_SnapshotFork)->Unit(benchmark::kMicrosecond);

void
BM_SnapshotForkExt2(benchmark::State &state)
{
    snapshotFork(state, "ext2", [](wl::Testbed &tb) {
        return wl::ext2Sync(tb.fs(), 256 * 1024);
    });
}
BENCHMARK(BM_SnapshotForkExt2)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------
// Fleet hot path. BM_FleetDeviceHour is the fleet workload's headline:
// synthesising one device's full traffic window through the quantile
// sketches (the calibration cost is paid once per cell and amortises
// away). items_per_second reports simulated device-hours per host
// second -- the >= 10k dh/s acceptance bar lives here. BM_SketchMerge
// is the per-lane reduction cost at the sweep barrier.
// ---------------------------------------------------------------------

/** Synthesize one device-day through the streaming sketches. */
void
BM_FleetDeviceHour(benchmark::State &state)
{
    const wl::TrafficMix &mix = *wl::findMix("default");
    wl::Calibration cal;
    // Canned calibration in the measured ballpark; the bench must not
    // depend on testbed boot so it isolates the synthesis hot path.
    for (auto &m : cal.kinds)
        m = {25000.0, 0.08, 1800.0, 0.01};
    const double hours = 24.0;
    wl::FleetStats stats;
    std::uint64_t id = 0;
    for (auto _ : state) {
        wl::synthesizeDevice(mix, cal, 42, id++, hours, stats);
        benchmark::DoNotOptimize(stats.bytes);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * hours));
    state.counters["episodes"] = benchmark::Counter(
        static_cast<double>(stats.episodes[0] + stats.episodes[1] +
                            stats.episodes[2]));
}
BENCHMARK(BM_FleetDeviceHour);

/** Fold one populated lane partial into the fleet total. */
void
BM_SketchMerge(benchmark::State &state)
{
    sim::QuantileSketch shard;
    sim::Rng rng(7);
    for (int i = 0; i < 4096; ++i)
        shard.sample(rng.uniform() * 1e6);
    sim::QuantileSketch total;
    for (auto _ : state) {
        total.merge(shard);
        benchmark::DoNotOptimize(total.count());
    }
}
BENCHMARK(BM_SketchMerge);

} // namespace

// Records *this repo's* CMAKE_BUILD_TYPE in the JSON context.
// google-benchmark's own "library_build_type" reflects how the system
// libbenchmark package was compiled and can read "debug" even for a
// Release build of k2; k2_build_type is what scripts/run_bench.sh and
// scripts/compare_bench.py trust.
int
main(int argc, char **argv)
{
#ifdef K2_BUILD_TYPE
    benchmark::AddCustomContext("k2_build_type", K2_BUILD_TYPE);
#endif
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
