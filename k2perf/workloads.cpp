#include "workloads.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>

#include "harness.h"
#include "obs/metrics.h"
#include "os/coherence/protocol.h"
#include "os/k2_system.h"
#include "sim/random.h"
#include "snap/snapshot.h"
#include "workloads/benchmarks.h"
#include "workloads/testbed.h"
#include "workloads/warm.h"

namespace k2perf {

namespace {

using namespace k2;

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

double
per(double a, double b)
{
    return b > 0 ? a / b : 0.0;
}

template <typename T>
void
shuffle(std::vector<T> &v, sim::Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

/**
 * Host time of the ops of one round mode (untraced / traced). Round 0
 * is the warm-up (caches, allocator, lazily built tables) and is not
 * tallied; its modelled results still count.
 */
struct Tally
{
    std::uint64_t ops = 0; //!< Work units (episodes, accesses, ...).
    double ns = 0;
    std::vector<double> us; //!< Per op call, per work unit.
};

/** State shared by the run loop and a workload. */
class Run
{
  public:
    explicit Run(const RunConfig &c) : cfg(c) {}

    const RunConfig &cfg;
    std::uint64_t round = 0;
    bool traced = false;

    std::vector<double> setupS;    //!< Host s, unscaled.
    std::array<Tally, 2> tally;    //!< [traced], host time unscaled.
    /** @name Untraced host times scaled to the reference speed. @{ */
    std::vector<double> setupScaledS;
    Tally scaled;
    std::vector<double> refMs; //!< Every reference pass, for the notes.
    /** @} */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** @name Round 0 modelled results (a function of the seed). @{ */
    Digest digest;
    double simBytes = 0;
    double simEnergyUj = 0;
    double simLatencyUs = 0;
    double simLatencyN = 0;
    double threadsLive = 0;
    /** Host memory high-water mark after round 0: set-ups plus one
     *  round, whatever the run length. */
    double rssMb = 0;
    /** @} */


    /** @name Traced rounds. @{ */
    SpanLog spans;
    Counts counts;
    Drift drift;
    double poolCapacity = 0;
    std::map<std::string, double> layer; //!< Workload-specific values.
    /** @} */

    std::uint64_t
    roundSeed() const
    {
        return splitmix(cfg.seed * 0x2545F4914F6CDD1Dull + round);
    }

    /** Id of the op being (or last) timed; spans of one op share it. */
    std::uint64_t opId() const { return nextOp_ - 1; }

    /**
     * Time one closed-loop op worth @p work units: the call @p f into
     * the system, nothing else. Returns what @p f returns.
     */
    template <typename F>
    auto
    op(std::uint64_t work, F &&f)
    {
        const std::uint64_t id = nextOp_++;
        const std::int64_t t0 = hostNs();
        auto r = [&] {
            Span root(spans, SpanLog::kOp, id);
            return f();
        }();
        const double ns = static_cast<double>(hostNs() - t0);
        const double us = ns / 1e3 / static_cast<double>(work);
        chain_.push_back(us);
        if (round > 0) {
            Tally &t = tally[traced];
            t.ops += work;
            t.ns += ns;
            t.us.push_back(us);
            if (!traced) {
                round_.ops += work;
                round_.ns += ns;
                round_.us.push_back(us);
            }
        }
        return r;
    }

    /**
     * Fold this round's untraced host times, and the set-ups timed since
     * the last call, into the scaled tallies: each multiplied by
     * kReferenceNs over @p refNs, the reference time around the round.
     */
    void
    closeRound(double refNs)
    {
        const double k = kReferenceNs / refNs;
        scaled.ops += round_.ops;
        scaled.ns += round_.ns * k;
        for (const double us : round_.us)
            scaled.us.push_back(us * k);
        round_ = Tally{};
        for (std::size_t i = setupScaledS.size(); i < setupS.size(); ++i)
            setupScaledS.push_back(setupS[i] * k);
    }

    /** True if the next check() is the one to falsify. */
    bool
    planted() const
    {
        return static_cast<std::int64_t>(checks_) == cfg.plantFailureAt;
    }

    void
    check(std::uint64_t work, bool ok)
    {
        ++checks_;
        attempted += work;
        if (!ok)
            failed += work;
    }

    /** Close a fixed-length chain of ops (the drift windows). */
    void
    endChain()
    {
        if (traced)
            drift.addChain(chain_);
        chain_.clear();
    }

    /** Bookkeeping when a round is done with @p sys. */
    void
    retire(os::SystemImage &sys, const obs::MetricsSnapshot &last)
    {
        poolCapacity =
            std::max(poolCapacity, scalar(last, "sim.pool_capacity"));
        if (round == 0) {
            for (kern::Kernel *k : sys.kernels())
                threadsLive += static_cast<double>(k->threads().size());
        }
    }

  private:
    std::uint64_t nextOp_ = 0;
    std::uint64_t checks_ = 0;
    std::vector<double> chain_;
    Tally round_; //!< Untraced ops of the current round, unscaled.
};

class Workload
{
  public:
    virtual ~Workload() = default;
    /** Provision the state the first op needs (timed as setup_s). */
    virtual void setup(Run &run) = 0;
    /** One fixed-length round of ops. */
    virtual void round(Run &run) = 0;
    /** Workload-specific per-layer values, after the last round. */
    virtual void finish(Run &) {}

  protected:
    std::uint64_t
    roundOps(const Run &run, std::uint64_t fallback) const
    {
        return run.cfg.roundOps ? run.cfg.roundOps : fallback;
    }
};

// ---------------------------------------------------------------------
// NightWatch episodes (episode-chain, sweep-fork).

enum Kind
{
    Dma = 0,
    Ext2,
    Udp,
};
constexpr int kKinds = 3;
constexpr std::array<const char *, kKinds> kKindName = {"dma", "ext2",
                                                        "udp"};
constexpr std::array<const char *, kKinds> kWarmupName = {
    "dma-warmup", "ext2-warmup", "udp-warmup"};
constexpr std::array<const char *, kKinds> kEpisodeSpan = {
    "workloads.episode_us.dma", "workloads.episode_us.ext2",
    "workloads.episode_us.udp"};
/** ext2 episodes write this many files of the payload size. */
constexpr int kExt2Files = 2;

/** The testbed binary's episode bodies. */
wl::Workload
episodeBody(wl::Testbed &tb, int kind, std::uint64_t bytes)
{
    switch (kind) {
      case Dma:
        return wl::dmaCopy(tb.dma(), 4096, bytes);
      case Ext2:
        return wl::ext2Sync(tb.fs(), bytes, kExt2Files);
      default:
        return wl::udpLoopback(tb.udp(), 8192, bytes);
    }
}

double
railsUj(const obs::MetricsSnapshot &s)
{
    return scalar(s, "soc.power.strong.energy_uj") +
           scalar(s, "soc.power.weak.energy_uj");
}

/**
 * Output checks for @p eps, episodes of @p kind moving @p bytes each,
 * that ran between @p before and @p after: the service moved exactly
 * the bytes requested, ext2 freed every block and inode it took, and
 * the rail energies sum to the episodes' energy.
 *
 * @param freshFs The first ext2 episode on a freshly formatted fs: it
 *        keeps exactly one block, the root directory's first data
 *        block (directories never shrink).
 */
bool
episodesOk(int kind, std::uint64_t bytes,
           std::initializer_list<wl::EpisodeResult> eps,
           const obs::MetricsSnapshot &before,
           const obs::MetricsSnapshot &after, bool freshFs, bool planted)
{
    const auto delta = [&](const char *name) {
        return scalar(after, name) - scalar(before, name);
    };
    const double off = planted ? 1 : 0;
    const double want =
        static_cast<double>(bytes * eps.size()) + off;
    bool ok = true;
    double energy = 0;
    for (const wl::EpisodeResult &e : eps) {
        ok &= e.bytes == bytes * (kind == Ext2 ? kExt2Files : 1);
        energy += e.energyUj;
    }
    switch (kind) {
      case Dma:
        ok &= delta("svc.dma.bytes") == want;
        break;
      case Ext2:
        ok &= delta("svc.fs.free_blocks") == off - (freshFs ? 1 : 0) &&
              delta("svc.fs.free_inodes") == 0;
        break;
      default:
        ok &= delta("svc.net.bytes_sent") == want;
        break;
    }
    const double rails = railsUj(after) - railsUj(before);
    ok &= std::abs(rails - energy) <= 1e-6 * std::max(1.0, energy);
    return ok;
}

class EpisodeWorkload : public Workload
{
  protected:
    /** Fold one measured episode into round 0's modelled results. */
    static void
    model(Run &run, int kind, std::uint64_t bytes,
          const wl::EpisodeResult &e)
    {
        if (run.round != 0)
            return;
        run.digest.u64(static_cast<std::uint64_t>(kind));
        run.digest.u64(bytes);
        run.digest.f64(e.energyUj);
        run.digest.u64(e.runTime);
        run.digest.u64(e.episodeTime);
        run.simBytes += static_cast<double>(e.bytes);
        run.simEnergyUj += e.energyUj;
        run.simLatencyUs += sim::toUsec(e.runTime);
        run.simLatencyN += 1;
    }

    /** Per-kind registry deltas of one traced op. */
    void
    count(const Run &run, int kind, const obs::MetricsSnapshot &before,
          const obs::MetricsSnapshot &after)
    {
        if (!run.traced)
            return;
        kinds_[kind].add(before, after);
        ++kindOps_[kind];
    }

    void
    finish(Run &run) override
    {
        for (const Counts &c : kinds_)
            run.counts.add(c);
        run.layer["svc.dma_transfers_per_dma_op"] =
            per(kinds_[Dma].at("svc.dma.transfers"), kindOps_[Dma]);
        run.layer["svc.disk_ios_per_ext2_op"] =
            per(kinds_[Ext2].at("svc.disk.reads") +
                    kinds_[Ext2].at("svc.disk.writes"),
                kindOps_[Ext2]);
        run.layer["svc.net_packets_per_udp_op"] =
            per(kinds_[Udp].at("svc.net.packets_sent"), kindOps_[Udp]);
    }

  private:
    std::array<Counts, kKinds> kinds_;
    std::array<double, kKinds> kindOps_{};
};

std::unique_ptr<wl::Testbed>
bootTestbed()
{
    auto tb = std::make_unique<wl::Testbed>(wl::Testbed::makeK2());
    tb->engine().run();
    return tb;
}

/**
 * episode-chain: one K2 testbed runs a long seeded chain of NightWatch
 * episodes back to back, never forked or reset -- the `testbed`
 * binary's loop, sized up. Each group of three episodes is a seeded
 * order of dma/ext2/udp with payloads of 1-65 KB.
 */
class EpisodeChain : public EpisodeWorkload
{
  public:
    void setup(Run &) override { tb_ = bootTestbed(); }

    void
    round(Run &run) override
    {
        if (!tb_)
            tb_ = bootTestbed(); // Later rounds: fresh, untimed.
        wl::Testbed &tb = *tb_;
        obs::MetricsRegistry reg;
        tb.registerMetrics(reg);
        sim::Rng rng(run.roundSeed());
        std::vector<int> order = {Dma, Ext2, Udp};
        obs::MetricsSnapshot before = reg.snapshot();
        bool freshFs = true;
        const std::uint64_t n = roundOps(run, 10000);
        for (std::uint64_t i = 0; i < n; ++i) {
            if (i % kKinds == 0)
                shuffle(order, rng);
            const int kind = order[i % kKinds];
            const std::uint64_t bytes = 1024 + rng.below(65536);
            const wl::Workload body = episodeBody(tb, kind, bytes);
            const wl::EpisodeResult res = run.op(1, [&] {
                Span s(run.spans, kEpisodeSpan[kind], run.opId());
                return wl::runEpisode(tb.sys(), tb.proc(), kKindName[kind],
                                      body);
            });
            obs::MetricsSnapshot after = reg.snapshot();
            run.check(1, episodesOk(kind, bytes, {res}, before, after,
                                    freshFs && kind == Ext2,
                                    run.planted()));
            freshFs &= kind != Ext2;
            count(run, kind, before, after);
            model(run, kind, bytes, res);
            before = std::move(after);
        }
        run.endChain();
        run.retire(tb.sys(), before);
        tb_.reset();
    }

  private:
    std::unique_ptr<wl::Testbed> tb_;
};

/**
 * sweep-fork: fig6-style sweep cells. Each cell forks the pooled warm
 * testbed (wl::warmK2 restores its snapshot), runs one warm-up episode
 * and one measured episode. Cells walk a seeded order of the 3 kinds x
 * 7 payload octaves from 4 KB to 512 KB, with a seeded payload inside
 * the octave.
 */
class SweepFork : public EpisodeWorkload
{
  public:
    void
    setup(Run &) override
    {
        tb_ = &wl::warmK2(wl::SweepMode::Warm, kKey);
        tb_->registerMetrics(reg_);
        base_ = reg_.snapshot();
    }

    void
    round(Run &run) override
    {
        if (run.traced && !captured_)
            capture(run);
        constexpr int kOctaves = 7;
        std::vector<int> cells(kKinds * kOctaves);
        std::iota(cells.begin(), cells.end(), 0);
        sim::Rng rng(run.roundSeed());
        obs::MetricsSnapshot after;
        const std::uint64_t n = roundOps(run, 210);
        for (std::uint64_t i = 0; i < n; ++i) {
            if (i % cells.size() == 0)
                shuffle(cells, rng);
            const int cell = cells[i % cells.size()];
            const int kind = cell % kKinds;
            const std::uint64_t lo = 4096ull << (cell / kKinds);
            const std::uint64_t bytes = lo + rng.below(lo);
            const auto [warm, res] = run.op(1, [&] {
                wl::Testbed *tb;
                {
                    Span s(run.spans, "snap.restore_us", run.opId());
                    tb = &wl::warmK2(wl::SweepMode::Warm, kKey);
                }
                const wl::Workload body = episodeBody(*tb, kind, bytes);
                std::pair<wl::EpisodeResult, wl::EpisodeResult> r;
                {
                    Span s(run.spans, "workloads.warmup_us", run.opId());
                    r.first = wl::runEpisode(tb->sys(), tb->proc(),
                                             kWarmupName[kind], body);
                }
                Span s(run.spans, kEpisodeSpan[kind], run.opId());
                r.second = wl::runEpisodeWarm(tb->sys(), tb->proc(),
                                              kKindName[kind], body, 0);
                return r;
            });
            after = reg_.snapshot();
            // Every cell starts from the snapshot, so the deltas are
            // against the post-boot state.
            run.check(1, episodesOk(kind, bytes, {warm, res}, base_, after,
                                    kind == Ext2, run.planted()));
            count(run, kind, base_, after);
            if (run.round == 0)
                run.digest.f64(warm.energyUj);
            model(run, kind, bytes, res);
        }
        run.endChain();
        run.retire(tb_->sys(), after);
    }

  private:
    static constexpr const char *kKey = "k2perf";

    /** Time one capture of the post-boot image (traced runs only). */
    void
    capture(Run &run)
    {
        wl::Testbed &tb = wl::warmK2(wl::SweepMode::Warm, kKey);
        snap::Snapshot image;
        {
            Span s(run.spans, "snap.capture_ms", run.opId());
            image = snap::Snapshot::of(tb);
        }
        run.layer["snap.image_bytes"] =
            static_cast<double>(image.sizeBytes());
        captured_ = true;
    }

    wl::Testbed *tb_ = nullptr;
    obs::MetricsRegistry reg_;
    obs::MetricsSnapshot base_;
    bool captured_ = false;
};

// ---------------------------------------------------------------------

/**
 * dsm-pingpong: the two kernels take turns issuing seeded reads and
 * writes to an 8-page DSM region, each access in its own spawned
 * thread. A round cycles the five coherence protocols, each on a fresh
 * K2System with an immediate inactive timeout (as BM_DsmFault_*).
 */
class DsmPingPong : public Workload
{
  public:
    void
    setup(Run &) override
    {
        first_ = boot(os::coherence::allProtocols()[0]);
    }

    void
    round(Run &run) override
    {
        const auto protocols = os::coherence::allProtocols();
        const std::uint64_t n =
            std::max<std::uint64_t>(roundOps(run, 40000) /
                                        protocols.size(),
                                    1);
        for (std::size_t p = 0; p < protocols.size(); ++p) {
            std::unique_ptr<os::K2System> sys =
                first_ ? std::move(first_) : boot(protocols[p]);
            chain(run, *sys, p, n);
        }
    }

    void
    finish(Run &run) override
    {
        const auto protocols = os::coherence::allProtocols();
        for (std::size_t p = 0; p < protocols.size(); ++p)
            run.layer[std::string("os.dsm.") +
                      os::coherence::protocolName(protocols[p]) +
                      ".host_us_per_access"] =
                per(ns_[p] / 1e3, accesses_[p]);
    }

  private:
    static constexpr std::uint64_t kPages = 8;

    static std::unique_ptr<os::K2System>
    boot(os::coherence::ProtocolKind proto)
    {
        os::K2Config cfg;
        cfg.soc.costs.inactiveTimeout = 0;
        cfg.dsmProtocol = proto;
        auto sys = std::make_unique<os::K2System>(cfg);
        sys->ownedEngine().run();
        return sys;
    }

    void
    chain(Run &run, os::K2System &sys, std::size_t p, std::uint64_t n)
    {
        kern::Process &proc = sys.createProcess("k2perf");
        const kern::PageRange region = sys.dsm().allocRegion(kPages);
        obs::MetricsRegistry reg;
        sys.registerMetrics(reg);
        const obs::MetricsSnapshot start = reg.snapshot();
        sim::Rng rng(run.roundSeed() ^ splitmix(p));
        std::uint64_t page = 0;
        // Accesses completed in this chain. An access still parked when
        // Engine::run returns and resumed by a later run shows as a
        // count mismatch; @p sys, and the parked frame, die with the
        // chain.
        std::uint64_t completed = 0;
        const double ns0 = run.tally[run.traced].ns;
        for (std::uint64_t i = 0; i < n; ++i) {
            kern::Kernel &k =
                i % 2 == 0 ? sys.shadowKernel() : sys.mainKernel();
            if (rng.below(4) == 0)
                page = rng.below(kPages);
            const os::Access rw =
                rng.below(2) ? os::Access::Write : os::Access::Read;
            run.op(1, [&] {
                {
                    Span s(run.spans, "kern.spawn_us", run.opId());
                    k.spawnThread(
                        &proc, "access", kern::ThreadKind::Normal,
                        [&sys, &completed, pfn = region.first + page,
                         rw](kern::Thread &t) -> sim::Task<void> {
                            co_await sys.dsm().access(t.kernel(), t.core(),
                                                      pfn, rw);
                            ++completed;
                        });
                }
                Span s(run.spans, "sim.host_ns_per_event", run.opId());
                return sys.ownedEngine().run();
            });
            run.check(1, completed == i + 1 && !run.planted());
        }
        run.endChain();
        const obs::MetricsSnapshot end = reg.snapshot();
        if (run.traced) {
            run.counts.add(start, end);
            ns_[p] += run.tally[1].ns - ns0;
            accesses_[p] += static_cast<double>(n);
        }
        if (run.round == 0)
            model(run, start, end);
        run.retire(sys, end);
    }

    /** Fold one protocol's chain into round 0's modelled results. */
    static void
    model(Run &run, const obs::MetricsSnapshot &start,
          const obs::MetricsSnapshot &end)
    {
        const obs::MetricsSnapshot d =
            obs::MetricsRegistry::diff(start, end);
        for (const auto &[name, m] : d.values()) {
            if (name.rfind("os.dsm.", 0) != 0 &&
                name.rfind("soc.power.", 0) != 0)
                continue;
            run.digest.str(name);
            run.digest.u64(m.count);
            run.digest.f64(m.sum);
            run.digest.f64(m.value);
        }
        Counts c;
        c.add(start, end);
        const double faults = c.sum("os.dsm.", ".faults");
        run.simLatencyUs += c.sum("os.dsm.", ".total_us");
        run.simLatencyN += faults;
        run.simBytes += faults * 4096;
        run.simEnergyUj += c.sum("soc.power.", ".energy_uj");
    }

    std::unique_ptr<os::K2System> first_;
    std::array<double, os::coherence::kNumProtocols> ns_{};
    std::array<double, os::coherence::kNumProtocols> accesses_{};
};

// ---------------------------------------------------------------------

using Factory = std::function<std::unique_ptr<Workload>()>;

const std::vector<std::pair<std::string, Factory>> &
registry()
{
    static const std::vector<std::pair<std::string, Factory>> r = {
        {"episode-chain", [] { return std::make_unique<EpisodeChain>(); }},
        {"dsm-pingpong", [] { return std::make_unique<DsmPingPong>(); }},
        {"sweep-fork", [] { return std::make_unique<SweepFork>(); }},
    };
    return r;
}

/** Per-layer metrics whose value is the mean host time of their span. */
const std::vector<std::pair<const char *, double>> kSpanMeans = {
    {"kern.spawn_us", 1e3},
    {"snap.capture_ms", 1e6},
    {"snap.restore_us", 1e3},
    {"workloads.episode_us.dma", 1e3},
    {"workloads.episode_us.ext2", 1e3},
    {"workloads.episode_us.udp", 1e3},
    {"workloads.warmup_us", 1e3},
};

std::map<std::string, double>
layerValues(const Run &run)
{
    std::map<std::string, double> v = run.layer;
    const Tally &t = run.tally[1];
    const double ops = static_cast<double>(t.ops);
    const Counts &c = run.counts;

    const double events = c.at("sim.events_dispatched");
    const std::string simSpan = "sim.host_ns_per_event";
    v["sim.events_per_op"] = per(events, ops);
    v["sim.host_ns_per_event"] =
        per(run.spans.calls(simSpan) ? run.spans.totalNs(simSpan) : t.ns,
            events);
    v["sim.pool_capacity"] = run.poolCapacity;

    v["soc.wakeups_per_op"] = per(c.sum("soc.", ".wakeups"), ops);
    v["soc.mailbox_per_op"] = per(c.at("soc.mailbox.sent"), ops);
    v["soc.strong_energy_share"] =
        per(c.at("soc.power.strong.energy_uj"),
            c.sum("soc.power.", ".energy_uj"));

    v["kern.threads_live"] = run.threadsLive;
    v["kern.context_switches_per_op"] =
        per(c.sum("kern.", ".sched.context_switches"), ops);
    v["kern.buddy_allocs_per_op"] =
        per(c.sum("kern.", ".buddy.alloc_calls"), ops);

    const double faults = c.sum("os.dsm.", ".faults");
    v["os.dsm.faults_per_op"] = per(faults, ops);
    v["os.dsm.messages_per_fault"] = per(c.at("os.dsm.messages"), faults);
    for (const auto &[phase, suffix] :
         std::vector<std::pair<std::string, std::string>>{
             {"entry", ".fault_entry_us"},
             {"protocol", ".protocol_us"},
             {"comm", ".comm_us"},
             {"service", ".service_us"},
             {"exit", ".exit_us"}})
        v["os.dsm.fault_phase_us." + phase] =
            per(c.sum("os.dsm.", suffix), faults);
    const double hits = c.sum("os.dsm.", ".tlb.hits");
    v["os.dsm.tlb_hit_ratio"] =
        per(hits, hits + c.sum("os.dsm.", ".tlb.misses"));
    v["os.nightwatch.suspends_per_op"] =
        per(c.at("os.nightwatch.suspends"), ops);

    for (const auto &[name, scale] : kSpanMeans)
        v[name] = per(run.spans.totalNs(name) / scale,
                      static_cast<double>(run.spans.calls(name)));

    v["workloads.op_drift"] = run.drift.ratio();
    v["obs.trace_overhead"] =
        per(per(ops, t.ns),
            per(static_cast<double>(run.tally[0].ops), run.tally[0].ns));
    for (const auto &[layer, ns] : run.spans.selfNs())
        v[layer + ".self_us_per_op"] = per(ns / 1e3, ops);
    return v;
}

std::string
fmt(const char *f, double a, double b = 0, double c = 0)
{
    char buf[160];
    std::snprintf(buf, sizeof buf, f, a, b, c);
    return buf;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> n;
        for (const auto &[name, make] : registry())
            n.push_back(name);
        return n;
    }();
    return names;
}

const std::vector<std::pair<std::string, std::string>> &
endToEndMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m = {
        {"setup_s", "s"},          {"ops_per_s", "op/s"},
        {"op_us_p50", "us"},       {"op_us_p99", "us"},
        {"peak_rss_mb", "MB"},     {"sim_mb_per_j", "MB/J"},
        {"sim_latency_us", "us"},
    };
    return m;
}

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m = [] {
        std::vector<std::pair<std::string, std::string>> v = {
            {"sim.events_per_op", "count"},
            {"sim.host_ns_per_event", "ns"},
            {"sim.pool_capacity", "count"},
            {"soc.wakeups_per_op", "count"},
            {"soc.mailbox_per_op", "count"},
            {"soc.strong_energy_share", "ratio"},
            {"kern.threads_live", "count"},
            {"kern.spawn_us", "us"},
            {"kern.context_switches_per_op", "count"},
            {"kern.buddy_allocs_per_op", "count"},
            {"os.dsm.faults_per_op", "count"},
            {"os.dsm.messages_per_fault", "count"},
        };
        for (const char *phase :
             {"entry", "protocol", "comm", "service", "exit"})
            v.emplace_back(std::string("os.dsm.fault_phase_us.") + phase,
                           "us");
        v.emplace_back("os.dsm.tlb_hit_ratio", "ratio");
        v.emplace_back("os.nightwatch.suspends_per_op", "count");
        for (os::coherence::ProtocolKind p :
             os::coherence::allProtocols())
            v.emplace_back(std::string("os.dsm.") +
                               os::coherence::protocolName(p) +
                               ".host_us_per_access",
                           "us");
        for (const auto &[name, unit] :
             std::vector<std::pair<std::string, std::string>>{
                 {"svc.disk_ios_per_ext2_op", "count"},
                 {"svc.net_packets_per_udp_op", "count"},
                 {"svc.dma_transfers_per_dma_op", "count"},
                 {"snap.capture_ms", "ms"},
                 {"snap.restore_us", "us"},
                 {"snap.image_bytes", "bytes"},
                 {"workloads.episode_us.dma", "us"},
                 {"workloads.episode_us.ext2", "us"},
                 {"workloads.episode_us.udp", "us"},
                 {"workloads.warmup_us", "us"},
                 {"workloads.op_drift", "ratio"},
                 {"obs.trace_overhead", "ratio"},
             })
            v.emplace_back(name, unit);
        for (const char *layer : {"bench", "workloads", "snap", "kern", "sim"})
            v.emplace_back(std::string(layer) + ".self_us_per_op", "us");
        return v;
    }();
    return m;
}

RunResult
runWorkload(const RunConfig &cfg)
{
    const auto &reg = registry();
    const auto it =
        std::find_if(reg.begin(), reg.end(),
                     [&](const auto &e) { return e.first == cfg.workload; });
    if (it == reg.end())
        throw std::invalid_argument("unknown workload '" + cfg.workload +
                                    "'");
    const Factory &make = it->second;

    Run run(cfg);
    // Each set-up runs on a fresh host thread: the warm-fixture pool is
    // thread_local, so a second set-up on one thread would measure a
    // cache hit. The first thread keeps its
    // state and runs the rounds; one more set-up runs before each later
    // round, so setup_s samples the host's speed phases over the whole
    // run rather than its first milliseconds.
    const auto onThread = [](const std::function<void()> &fn) {
        std::exception_ptr err;
        std::thread th([&] {
            try {
                fn();
            } catch (...) {
                err = std::current_exception();
            }
        });
        th.join();
        if (err)
            std::rethrow_exception(err);
    };
    const auto timedSetup = [&](Workload &w) {
        const std::int64_t t0 = hostNs();
        w.setup(run);
        run.setupS.push_back(static_cast<double>(hostNs() - t0) / 1e9);
    };
    // Reference passes bracket every round (see kReferenceNs); the first
    // pass only warms the allocator and is not used.
    const auto reference = [&] {
        const double ns = static_cast<double>(referenceNs());
        run.refMs.push_back(ns / 1e6);
        return ns;
    };
    onThread([&] {
        referenceNs();
        double refBefore = reference();
        const std::unique_ptr<Workload> w = make();
        timedSetup(*w);
        const std::int64_t start = hostNs();
        // Round 0 warms up; a traced run alternates untraced and traced
        // rounds after it, so it needs one of each.
        const std::uint64_t minRounds = cfg.trace ? 3 : 2;
        for (;; ++run.round) {
            if (run.round > 0)
                onThread([&] { timedSetup(*make()); });
            run.traced = cfg.trace && run.round % 2 == 1;
            run.spans.enable(run.traced);
            w->round(run);
            if (run.round == 0)
                run.rssMb = peakRssMb();
            const double refAfter = reference();
            run.closeRound((refBefore + refAfter) / 2);
            refBefore = refAfter;
            const bool timeUp =
                static_cast<double>(hostNs() - start) / 1e9 >= cfg.seconds;
            if (timeUp && run.round + 1 >= minRounds)
                break;
        }
        run.spans.enable(false);
        w->finish(run);
    });

    RunResult r;
    r.attempted = run.attempted;
    r.failed = run.failed;
    r.rounds = run.round + 1;
    r.digest = run.digest.hex();
    if (cfg.trace) {
        const std::map<std::string, double> v = layerValues(run);
        for (const auto &[name, unit] : perLayerMetrics()) {
            const auto f = v.find(name);
            r.metrics.push_back({name, f == v.end() ? 0 : f->second, unit});
        }
        if (!cfg.traceFile.empty()) {
            if (!run.spans.writeChrome(cfg.traceFile))
                throw std::runtime_error("cannot write " + cfg.traceFile);
            r.notes.push_back("trace: " + cfg.traceFile);
        }
        return r;
    }

    const Tally &t = run.scaled;
    const Tail tail = tailPercentile(t.us);
    const double values[] = {
        median(run.setupScaledS),
        per(static_cast<double>(t.ops), t.ns / 1e9),
        median(t.us),
        tail.value,
        run.rssMb,
        per(run.simBytes, run.simEnergyUj),
        per(run.simLatencyUs, run.simLatencyN),
    };
    for (std::size_t i = 0; i < endToEndMetrics().size(); ++i)
        r.metrics.push_back({endToEndMetrics()[i].first, values[i],
                             endToEndMetrics()[i].second});
    r.notes.push_back(fmt("op_us_p99: p%.4g of %.0f op samples, %.0f "
                          "beyond it",
                          tail.percentile * 100,
                          static_cast<double>(tail.samples),
                          static_cast<double>(tail.beyond)));
    r.notes.push_back(fmt("setup_s: median of %.0f set-ups",
                          static_cast<double>(run.setupS.size())));
    r.notes.push_back(fmt("host speed: reference pass median %.4g ms "
                          "(nominal %.4g ms) over %.0f passes",
                          median(run.refMs), kReferenceNs / 1e6,
                          static_cast<double>(run.refMs.size())));
    const Tally &raw = run.tally[0];
    r.notes.push_back(fmt("unscaled: setup_s %.6g, ops_per_s %.6g, "
                          "op_us_p50 %.6g",
                          median(run.setupS),
                          per(static_cast<double>(raw.ops), raw.ns / 1e9),
                          median(raw.us)));
    return r;
}

} // namespace k2perf
