/**
 * @file
 * Simulator side of the repository benchmark.  run.py starts one fresh
 * process of this binary per timed repetition; each prints a single
 * JSON object on stdout.  The layers are timed from outside only,
 * through the simulator's public API:
 *
 *   perfbench_sim run   --workload W --seed S [--setup-only]
 *       System construction + setup() (+ measure()), host-timed.
 *   perfbench_sim grid  --seed S
 *       The figure-grid sweep: two SimRunner::run batches.
 *   perfbench_sim trace --workload W --seed S
 *       setup() + measure(), then a replay of the workload's own access
 *       stream through each layer's public entry point on the warmed
 *       System, with each call group timed on the steady clock.
 *   perfbench_sim info
 *       Build provenance.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "compress/block_compressor.hh"
#include "compress/mem_deflate.hh"
#include "sim/checkpoint.hh"
#include "sim/runner.hh"
#include "sim/system.hh"
#include "workloads/content.hh"
#include "workloads/profile_library.hh"

using namespace tmcc;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Flat JSON object writer: numbers, strings, raw nested values. */
class Json
{
  public:
    Json &
    num(const std::string &key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return raw(key, buf);
    }

    Json &
    count(const std::string &key, std::uint64_t v)
    {
        return raw(key, std::to_string(v));
    }

    Json &
    str(const std::string &key, const std::string &v)
    {
        return raw(key, "\"" + v + "\"");
    }

    Json &
    raw(const std::string &key, const std::string &v)
    {
        body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + v;
        return *this;
    }

    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

/** The headline SimResult fields every run is checked on. */
std::string
headline(const SimResult &r)
{
    return Json()
        .count("accesses", r.accesses)
        .count("elapsed", r.elapsed)
        .count("tlbHits", r.tlbHits)
        .count("tlbMisses", r.tlbMisses)
        .count("llcMisses", r.llcMisses)
        .count("llcWritebacks", r.llcWritebacks)
        .count("cteHits", r.cteHits)
        .count("cteMisses", r.cteMisses)
        .count("ml1CteHit", r.ml1CteHit)
        .count("ml1Parallel", r.ml1Parallel)
        .count("ml1Mismatch", r.ml1Mismatch)
        .count("ml1Serial", r.ml1Serial)
        .count("ml2Accesses", r.ml2Accesses)
        .count("dramUsedBytes", r.dramUsedBytes)
        .count("footprintBytes", r.footprintBytes)
        .text();
}

/** The simulation behind each single-System workload. */
SimConfig
workloadConfig(const std::string &workload, std::uint64_t seed)
{
    SimConfig cfg = SimConfig::scaledDefault();
    cfg.cores = 4;
    cfg.seed = seed;
    if (workload == "graph-walk") {
        cfg.workload = "pageRank";
        cfg.arch = Arch::Tmcc;
    } else if (workload == "stream-compresso") {
        cfg.workload = "stream";
        cfg.arch = Arch::Compresso;
    } else if (workload == "tenant-ml2") {
        cfg.workload = "memcloud";
        cfg.arch = Arch::Tmcc;
    } else {
        fatal("unknown single-System workload \"" + workload + "\"");
    }
    return cfg;
}

/** One figure-bench config at the benches' quick phase lengths. */
SimConfig
gridConfig(const std::string &workload, Arch arch, std::uint64_t seed)
{
    SimConfig cfg = SimConfig::scaledDefault();
    cfg.cores = 4;
    cfg.seed = seed;
    cfg.workload = workload;
    cfg.arch = arch;
    if (workload == "mcf")
        cfg.scale = 0.8;
    cfg.placementAccesses /= 4;
    cfg.warmAccesses /= 4;
    cfg.measureAccesses /= 4;
    return cfg;
}

const std::vector<std::string> gridWorkloads = {"pageRank", "bfs", "mcf"};

/**
 * SimRunner workers of the figure grid: three, one per arch of a
 * workload.  Each batch then starts workload by workload, the same two
 * Compresso runs overlap every time and the grid's peak RSS repeats
 * (563 MB on every seed on a 4-core host).  Four workers would leave
 * the overlap, and so the peak RSS (570-835 MB), to thread timing.
 */
constexpr unsigned gridJobs = 3;

/** Accesses per core a traced run replays through the layers. */
constexpr std::uint64_t replayPerCore = 50'000;

/** Fig. 18's grid, then Fig. 17's, as the figure suite submits them. */
std::vector<std::vector<SimConfig>>
gridBatches(std::uint64_t seed)
{
    std::vector<SimConfig> fig18, fig17;
    for (const std::string &w : gridWorkloads) {
        fig18.push_back(gridConfig(w, Arch::NoCompression, seed));
        fig18.push_back(gridConfig(w, Arch::Compresso, seed));
        fig18.push_back(gridConfig(w, Arch::Tmcc, seed));
        fig17.push_back(gridConfig(w, Arch::Compresso, seed));
        fig17.push_back(gridConfig(w, Arch::Tmcc, seed));
    }
    return {fig18, fig17};
}

/**
 * Accesses the measure() phase simulated: every core's warm window
 * plus the measured window (where cores may overshoot their quota).
 */
std::uint64_t
engineAccesses(const SimConfig &cfg, const SimResult &r)
{
    return static_cast<std::uint64_t>(cfg.cores) * cfg.warmAccesses +
           r.accesses;
}

/** Sum of every key that starts with `prefix` and ends with `suffix`. */
double
sumMatching(const StatDump &s, const std::string &prefix,
            const std::string &suffix)
{
    double total = 0.0;
    for (const auto &[key, v] : s.all())
        if (key.size() >= prefix.size() + suffix.size() &&
            key.compare(0, prefix.size(), prefix) == 0 &&
            key.compare(key.size() - suffix.size(), suffix.size(),
                        suffix) == 0)
            total += v;
    return total;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// ---------------------------------------------------------------- run

int
cmdRun(const std::string &workload, std::uint64_t seed, bool setup_only)
{
    const SimConfig cfg = workloadConfig(workload, seed);
    const auto t0 = Clock::now();
    System sys(cfg);
    sys.setup();
    const double setup_s = secondsSince(t0);
    Json out;
    out.num("setup_s", setup_s);
    if (!setup_only) {
        const auto t1 = Clock::now();
        const SimResult r = sys.measure();
        const double measure_s = secondsSince(t1);
        out.num("measure_s", measure_s)
            .num("wall_s", secondsSince(t0))
            .count("engine_accesses", engineAccesses(cfg, r))
            .raw("headline", headline(r));
    }
    out.num("peak_rss_mb", peakRssMb());
    std::printf("%s\n", out.text().c_str());
    return 0;
}

// --------------------------------------------------------------- grid

/** Run the figure grid; returns the flat result list. */
std::vector<SimResult>
runGrid(std::uint64_t seed, std::vector<SimConfig> &flat)
{
    const SimRunner runner(gridJobs);
    std::vector<SimResult> results;
    for (const auto &batch : gridBatches(seed)) {
        const std::vector<SimResult> r = runner.run(batch);
        results.insert(results.end(), r.begin(), r.end());
        flat.insert(flat.end(), batch.begin(), batch.end());
    }
    return results;
}

/** Key of a grid config: the fields gridConfig varies. */
std::string
gridKey(const SimConfig &c)
{
    return c.workload + "/" + archName(c.arch);
}

/**
 * The grid's runner-level figures plus the headline of each distinct
 * config; a repeated config must reproduce its first occurrence's
 * headline and stats.
 */
Json
gridSummary(const std::vector<SimConfig> &flat,
            const std::vector<SimResult> &results)
{
    std::map<std::string, std::size_t> first;
    std::uint64_t duplicates = 0, accesses = 0;
    bool identical = true;
    std::string heads;
    for (std::size_t i = 0; i < flat.size(); ++i) {
        accesses += engineAccesses(flat[i], results[i]);
        const auto [it, fresh] = first.emplace(gridKey(flat[i]), i);
        if (fresh) {
            heads += (i ? ", " : "") +
                     ("\"" + gridKey(flat[i]) + "\": ") +
                     headline(results[i]);
            continue;
        }
        ++duplicates;
        const SimResult &a = results[it->second];
        identical = identical && headline(a) == headline(results[i]) &&
                    a.stats.all() == results[i].stats.all();
    }
    const SimRunner::PhaseTotals pt = SimRunner::phaseTotals();
    Json out;
    out.num("setup_s", pt.setupSeconds)
        .num("measure_s", pt.measureSeconds)
        .count("engine_accesses", accesses)
        .count("runs", flat.size())
        .count("simulated_runs", pt.runs)
        .count("restored_runs", pt.restoredRuns)
        .count("ckpt_misses", CheckpointStore::global().stats().misses)
        .count("duplicate_runs", duplicates)
        .count("jobs", gridJobs)
        .raw("duplicates_identical", identical ? "true" : "false")
        .raw("headlines", "{" + heads + "}");
    return out;
}

int
cmdGrid(std::uint64_t seed)
{
    const auto t0 = Clock::now();
    std::vector<SimConfig> flat;
    const std::vector<SimResult> results = runGrid(seed, flat);
    const double wall_s = secondsSince(t0);
    Json out = gridSummary(flat, results);
    out.num("wall_s", wall_s).num("peak_rss_mb", peakRssMb());
    std::printf("%s\n", out.text().c_str());
    return 0;
}

// -------------------------------------------------------------- trace

/** Host time and call count of one timed call group. */
struct CallGroup
{
    double ns = 0.0;
    std::uint64_t calls = 0;

    double perCall() const { return calls ? ns / calls : 0.0; }

    /** Run `fn` (which returns how many calls it made) on the clock. */
    template <class Fn>
    void
    time(Fn &&fn)
    {
        const auto t0 = Clock::now();
        calls += fn();
        ns += std::chrono::duration<double, std::nano>(Clock::now() - t0)
                  .count();
    }
};

/** The replay's call groups, one per public entry point. */
struct Replay
{
    CallGroup next, tlbLookup, walkPlan, tlbInsert, ptbView, cteInsert,
        cteLookup, cacheAccess, cacheFill, mcRead, mcWriteback, dramRead,
        dramWrite;
    std::uint64_t accesses = 0;
    double wallNs = 0.0;
    bool countsMatch = true;
};

/** One L3 miss (or writeback) the replay sends below the caches. */
struct MemOp
{
    unsigned core;
    Addr addr;
    bool write;
    bool fromWalker;
    bool compressed = false;
};

/**
 * Replay `per_core` accesses per core of a fresh stream through the
 * warmed System's layers, in stages of `chunk` accesses so each stage
 * is one timed call group.  Walkers and CTE buffers are the replay's
 * own (same classes and sizes as the System's, over its page table).
 */
Replay
replayStream(System &sys, std::uint64_t per_core)
{
    const SimConfig &cfg = sys.config();
    const unsigned cores = cfg.cores;
    const bool tmcc_path = cfg.arch == Arch::Tmcc && sys.osMc() != nullptr;
    const TenantKnobs tenancy{cfg.tenants, cfg.tenantChurn,
                              cfg.tenantZipf};
    std::vector<std::unique_ptr<Workload>> wls;
    std::vector<std::unique_ptr<Walker>> walkers;
    std::vector<std::unique_ptr<CteBuffer>> buffers;
    double lookups_before = 0.0;
    for (unsigned c = 0; c < cores; ++c) {
        wls.push_back(makeWorkload(cfg.workload, c, cores, cfg.scale,
                                   cfg.seed, tenancy));
        walkers.push_back(std::make_unique<Walker>(sys.pageTable()));
        buffers.push_back(
            std::make_unique<CteBuffer>(cfg.cteBufferEntries));
        lookups_before += static_cast<double>(sys.tlb(c).hits() +
                                              sys.tlb(c).misses());
    }

    struct Slot
    {
        unsigned core = 0;
        MemAccess a;
        Ppn ppn = 0;
        bool miss = false;
        WalkPlan plan;
    };
    constexpr std::size_t chunk = 256;
    std::vector<Slot> slots(chunk);
    std::vector<MemOp> misses, wbs;
    std::vector<OsInspiredMc::PtbView> views;
    std::vector<std::pair<unsigned, Addr>> view_at;
    Hierarchy &hier = sys.hierarchy();
    MemController &mc = sys.mc();
    DramSystem &dram = sys.dram();
    // Far beyond the measured window, advancing 10ns per access.
    Tick now = nsToTicks(1e10);
    const Tick step = nsToTicks(10.0);

    Replay rp;
    const auto wall0 = Clock::now();
    const std::uint64_t total = per_core * cores;
    for (std::uint64_t done = 0; done < total; done += chunk) {
        const std::size_t n =
            static_cast<std::size_t>(std::min<std::uint64_t>(chunk,
                                                              total - done));
        rp.next.time([&] {
            for (std::size_t i = 0; i < n; ++i) {
                slots[i].core = static_cast<unsigned>((done + i) % cores);
                slots[i].a = wls[slots[i].core]->next();
            }
            return n;
        });
        rp.tlbLookup.time([&] {
            for (std::size_t i = 0; i < n; ++i)
                slots[i].miss = !sys.tlb(slots[i].core)
                                     .lookup(slots[i].a.vaddr,
                                             slots[i].ppn);
            return n;
        });
        rp.walkPlan.time([&] {
            std::size_t calls = 0;
            for (std::size_t i = 0; i < n; ++i) {
                if (!slots[i].miss)
                    continue;
                slots[i].plan = walkers[slots[i].core]->plan(
                    slots[i].a.vaddr);
                ++calls;
            }
            return calls;
        });
        for (std::size_t i = 0; i < n; ++i)
            fatalIf(slots[i].miss && !slots[i].plan.valid,
                    "replay: unmapped address in workload stream");
        rp.tlbInsert.time([&] {
            std::size_t calls = 0;
            for (std::size_t i = 0; i < n; ++i) {
                Slot &s = slots[i];
                if (!s.miss)
                    continue;
                s.ppn = s.plan.ppn;
                sys.tlb(s.core).insert(pageNumber(s.a.vaddr), s.plan.ppn);
                ++calls;
            }
            return calls;
        });

        if (tmcc_path) {
            // The walk's leaf PTB: ptbView + one insert per present PTE.
            view_at.clear();
            for (std::size_t i = 0; i < n; ++i)
                if (slots[i].miss && !slots[i].plan.fetches.empty())
                    view_at.emplace_back(
                        slots[i].core,
                        blockAlign(slots[i].plan.fetches.back().ptbAddr));
            views.resize(view_at.size());
            rp.ptbView.time([&] {
                for (std::size_t v = 0; v < view_at.size(); ++v)
                    views[v] = sys.osMc()->ptbView(view_at[v].second);
                return view_at.size();
            });
            rp.cteInsert.time([&] {
                std::size_t calls = 0;
                for (std::size_t v = 0; v < views.size(); ++v) {
                    if (!views[v].compressed)
                        continue;
                    CteBuffer &buf = *buffers[view_at[v].first];
                    for (unsigned p = 0; p < ptesPerPtb; ++p) {
                        if (!views[v].present[p])
                            continue;
                        buf.insert(views[v].ppns[p], views[v].hasCte[p],
                                   views[v].cte[p], view_at[v].second);
                        ++calls;
                    }
                }
                return calls;
            });
        }

        misses.clear();
        wbs.clear();
        rp.cacheAccess.time([&] {
            std::size_t calls = 0;
            const auto access = [&](unsigned core, Addr addr, bool write,
                                    bool walker) {
                const AccessOutcome out =
                    hier.access(core, addr, write, walker);
                if (out.level == HitLevel::Memory)
                    misses.push_back({core, addr, write, walker});
                for (const CacheLine &wb : out.memWritebacks)
                    wbs.push_back({core, wb.addr, true, false,
                                   wb.compressed});
                ++calls;
            };
            for (std::size_t i = 0; i < n; ++i) {
                const Slot &s = slots[i];
                if (s.miss)
                    for (const WalkStep &ws : s.plan.fetches)
                        access(s.core, ws.ptbAddr, false, true);
                access(s.core,
                       (s.ppn << pageShift) |
                           (s.a.vaddr & (pageSize - 1)),
                       s.a.isWrite, false);
            }
            return calls;
        });

        if (tmcc_path) {
            rp.cteLookup.time([&] {
                for (const MemOp &m : misses)
                    buffers[m.core]->lookup(pageNumber(m.addr));
                return misses.size();
            });
        }
        rp.mcRead.time([&] {
            for (MemOp &m : misses) {
                McReadRequest req;
                req.core = m.core;
                req.paddr = m.addr;
                req.when = now;
                req.fromWalker = m.fromWalker;
                m.compressed = mc.read(req).fillCompressedPtb;
                now += step;
            }
            return misses.size();
        });
        rp.cacheFill.time([&] {
            for (const MemOp &m : misses) {
                const AccessOutcome out = hier.fill(
                    m.core, m.addr, m.write, m.compressed, m.fromWalker);
                for (const CacheLine &wb : out.memWritebacks)
                    wbs.push_back({m.core, wb.addr, true, false,
                                   wb.compressed});
            }
            return misses.size();
        });
        rp.mcWriteback.time([&] {
            for (const MemOp &w : wbs)
                mc.writeback(w.addr, now, w.compressed);
            return wbs.size();
        });
        rp.dramRead.time([&] {
            for (const MemOp &m : misses) {
                dram.read(m.addr, now);
                now += step;
            }
            return misses.size();
        });
        rp.dramWrite.time([&] {
            for (const MemOp &w : wbs)
                dram.write(w.addr, now);
            return wbs.size();
        });
        now += step * n;
        rp.accesses += n;
    }
    rp.wallNs = std::chrono::duration<double, std::nano>(Clock::now() -
                                                         wall0)
                    .count();

    // Self-test: the counters the layers keep saw exactly the replay's
    // calls.
    double lookups_after = 0.0;
    std::uint64_t walks = 0;
    StatDump buf_stats;
    for (unsigned c = 0; c < cores; ++c) {
        lookups_after += static_cast<double>(sys.tlb(c).hits() +
                                             sys.tlb(c).misses());
        walks += walkers[c]->walks();
        buffers[c]->dumpStats(buf_stats, "b" + std::to_string(c));
    }
    rp.countsMatch =
        lookups_after - lookups_before ==
            static_cast<double>(rp.tlbLookup.calls) &&
        walks == rp.walkPlan.calls &&
        sumMatching(buf_stats, "b", ".inserts") ==
            static_cast<double>(rp.cteInsert.calls);
    return rp;
}

/** Codec cost on pages drawn from the workload's own content mix. */
struct CodecCost
{
    double deflateNs = 0.0, inflateNs = 0.0, blockNs = 0.0;
    bool roundTrip = true;
};

CodecCost
codecCost(const SimConfig &cfg, unsigned pages)
{
    const std::unique_ptr<Workload> wl =
        makeWorkload(cfg.workload, 0, cfg.cores, cfg.scale, cfg.seed,
                     {cfg.tenants, cfg.tenantChurn, cfg.tenantZipf});
    std::vector<std::vector<std::uint8_t>> content;
    Rng rng(cfg.seed);
    const auto &regions = wl->regions();
    for (unsigned p = 0; p < pages; ++p)
        content.push_back(generateContent(
            regions[p % regions.size()].content, rng));

    const MemDeflate deflate;
    const BlockCompressor block;
    std::vector<CompressedPage> packed;
    CodecCost cost;
    const auto t0 = Clock::now();
    for (const auto &page : content)
        packed.push_back(deflate.compress(page.data(), page.size()));
    const auto t1 = Clock::now();
    for (std::size_t p = 0; p < packed.size(); ++p) {
        const auto back = deflate.decompress(packed[p]);
        cost.roundTrip =
            cost.roundTrip && back.ok() && back.value() == content[p];
    }
    const auto t2 = Clock::now();
    std::size_t bytes = 0;
    for (const auto &page : content)
        bytes += block.compressPage(page.data());
    const auto t3 = Clock::now();
    cost.roundTrip = cost.roundTrip && bytes > 0;

    const auto ns = [pages](auto a, auto b) {
        return std::chrono::duration<double, std::nano>(b - a).count() /
               pages;
    };
    cost.deflateNs = ns(t0, t1);
    cost.inflateNs = ns(t1, t2);
    cost.blockNs = ns(t2, t3);
    return cost;
}

/**
 * Per-layer metrics of one traced System: exact counters from the
 * measured run's StatDump (component counters cover the warm and
 * measured windows), host ns per call from the replay, and each
 * layer's ns per simulated access = ns per call x calls per access.
 */
Json
layerMetrics(const SimConfig &cfg, const SimResult &r, double measure_s,
             const Replay &rp, const CodecCost &codec)
{
    const StatDump &s = r.stats;
    const double acc = static_cast<double>(engineAccesses(cfg, r));
    const double kacc = acc / 1000.0;
    const double tlb_hits = sumMatching(s, "core", ".tlb.hits");
    const double tlb_misses = sumMatching(s, "core", ".tlb.misses");
    const double walks = sumMatching(s, "core", ".walker.walks");
    const double pwc_hits = sumMatching(s, "core", ".walker.pwc.hits");
    const double pwc_misses = sumMatching(s, "core", ".walker.pwc.misses");
    const double inserts = sumMatching(s, "core", ".cte_buffer.inserts");
    const double buf_hits = sumMatching(s, "core", ".cte_buffer.hits");
    const double buf_misses = sumMatching(s, "core", ".cte_buffer.misses");
    const double l1_hits = sumMatching(s, "hier.l1.", ".hits");
    const double l1_misses = sumMatching(s, "hier.l1.", ".misses");
    const double l2_hits = sumMatching(s, "hier.l2.", ".hits");
    const double l2_misses = sumMatching(s, "hier.l2.", ".misses");
    const double pf_issued = sumMatching(s, "hier.pf.", ".issued");
    const double pf_useful = sumMatching(s, "hier.pf.", ".useful");
    const double demand = s.get("hier.demand_accesses");
    const double walker_acc = s.get("hier.walker_accesses");
    const double mc_reads = s.get("mc.reads");
    const double mc_wbs = s.get("mc.writebacks");
    const double dram_reads = sumMatching(s, "dram.", ".reads");
    const double dram_writes = sumMatching(s, "dram.", ".writes");
    const double row_hits = sumMatching(s, "dram.", ".row_hits");
    const double row_all = row_hits +
                           sumMatching(s, "dram.", ".row_misses") +
                           sumMatching(s, "dram.", ".row_conflicts");
    const double llc = static_cast<double>(r.llcMisses);
    const bool tmcc_path = cfg.arch == Arch::Tmcc;

    const double host_ns = measure_s * 1e9 / acc;
    const double l_wl = rp.next.perCall();
    const double l_vm =
        rp.tlbLookup.perCall() * (tlb_hits + tlb_misses) / acc +
        (rp.walkPlan.perCall() + rp.tlbInsert.perCall()) * walks / acc;
    const double ptb_collect =
        ratio(rp.ptbView.ns + rp.cteInsert.ns,
              static_cast<double>(rp.ptbView.calls));
    // The System harvests CTEs on every walker PTB fetch and probes the
    // CTE buffer on every L3 miss; only TMCC takes that path.
    const double l_tmcc =
        tmcc_path ? (rp.ptbView.perCall() * walker_acc +
                     rp.cteInsert.perCall() * inserts +
                     rp.cteLookup.perCall() * (buf_hits + buf_misses)) /
                        acc
                  : 0.0;
    const double l_cache = (rp.cacheAccess.perCall() * (demand + walker_acc) +
                            rp.cacheFill.perCall() * mc_reads) /
                           acc;
    const double l_dram = (rp.dramRead.perCall() * dram_reads +
                           rp.dramWrite.perCall() * dram_writes) /
                          acc;
    // MemController calls include their DRAM calls: report self time.
    const double l_mc = (rp.mcRead.perCall() * mc_reads +
                         rp.mcWriteback.perCall() * mc_wbs) /
                            acc -
                        l_dram;
    const double attributed = l_wl + l_vm + l_tmcc + l_cache + l_mc + l_dram;

    Json m;
    m.num("workloads.next_ns", rp.next.perCall())
        .num("workloads.store_frac",
             ratio(static_cast<double>(r.storeAccesses),
                   static_cast<double>(r.accesses)))
        .num("vm.tlb.lookup_ns", rp.tlbLookup.perCall())
        .num("vm.tlb.miss_rate", ratio(tlb_misses, tlb_hits + tlb_misses))
        .num("vm.walker.plan_ns", rp.walkPlan.perCall())
        .num("vm.walker.walks_per_kacc", walks / kacc)
        .num("vm.walker.pwc_hit_rate", ratio(pwc_hits, pwc_hits + pwc_misses))
        .num("tmcc.ptb_collect_ns", ptb_collect)
        .num("tmcc.cte_buffer.insert_ns", rp.cteInsert.perCall())
        .num("tmcc.cte_buffer.inserts_per_walk", ratio(inserts, walks))
        .num("tmcc.cte_buffer.hit_rate", ratio(buf_hits, buf_hits + buf_misses))
        .num("tmcc.ptb_compressed_fetches_per_kacc",
             s.get("mc.ptb_compressed_fetches") / kacc)
        .num("cache.access_ns", rp.cacheAccess.perCall())
        .num("cache.fill_ns", rp.cacheFill.perCall())
        .num("cache.l1.miss_rate", ratio(l1_misses, l1_hits + l1_misses))
        .num("cache.l2.miss_rate", ratio(l2_misses, l2_hits + l2_misses))
        .num("cache.l3_misses_per_kacc", s.get("hier.l3_misses") / kacc)
        .num("cache.pf.issued_per_kacc", pf_issued / kacc)
        .num("cache.pf.useful_frac", ratio(pf_useful, pf_issued))
        .num("mc.read_ns", rp.mcRead.perCall())
        .num("mc.writeback_ns", rp.mcWriteback.perCall())
        .num("mc.cte_cache.hit_rate", s.get("mc.cte_cache.hit_rate"))
        .num("mc.ml2_reads_per_kacc", s.get("mc.ml2_reads") / kacc)
        .num("mc.migrations_per_kacc",
             (s.get("mc.migrations_in") + s.get("mc.migrations_out")) / kacc)
        .num("mc.serial_frac", ratio(static_cast<double>(r.ml1Serial), llc))
        .num("mc.parallel_frac",
             ratio(static_cast<double>(r.ml1Parallel), llc))
        .num("dram.read_ns", rp.dramRead.perCall())
        .num("dram.write_ns", rp.dramWrite.perCall())
        .num("dram.reads_per_kacc", dram_reads / kacc)
        .num("dram.writes_per_kacc", dram_writes / kacc)
        .num("dram.row_hit_rate", ratio(row_hits, row_all))
        .num("dram.read_bus_util", r.readBusUtil)
        .num("dram.write_bus_util", r.writeBusUtil)
        .num("compress.mem_deflate.compress_ns_per_page", codec.deflateNs)
        .num("compress.mem_deflate.decompress_ns_per_page", codec.inflateNs)
        .num("compress.block.compress_ns_per_page", codec.blockNs)
        .num("compress.profile_pages",
             static_cast<double>(ProfileLibrary::cacheStats().pagesCompressed))
        .num("sim.host_ns_per_access", host_ns)
        .num("sim.replay_ns_per_access",
             rp.wallNs / static_cast<double>(rp.accesses))
        .num("sim.accesses_per_ns", r.accessesPerNs())
        .num("sim.l3_miss_latency_ns", r.avgL3MissLatencyNs)
        .num("sim.compression_ratio", r.compressionRatio())
        .num("sim.ml2_accesses", static_cast<double>(r.ml2Accesses))
        .num("layer.workloads.ns_per_access", l_wl)
        .num("layer.vm.ns_per_access", l_vm)
        .num("layer.tmcc.ns_per_access", l_tmcc)
        .num("layer.cache.ns_per_access", l_cache)
        .num("layer.mc.ns_per_access", l_mc)
        .num("layer.dram.ns_per_access", l_dram)
        .num("layer.unattributed.ns_per_access", host_ns - attributed);
    return m;
}

int
cmdTrace(const std::string &workload, std::uint64_t seed)
{
    const auto t0 = Clock::now();
    Json grid;
    SimConfig cfg;
    if (workload == "figure-grid") {
        std::vector<SimConfig> flat;
        const std::vector<SimResult> results = runGrid(seed, flat);
        grid = gridSummary(flat, results);
        // The layers are replayed on the grid's first TMCC member.
        cfg = gridConfig(gridWorkloads.front(), Arch::Tmcc, seed);
    } else {
        cfg = workloadConfig(workload, seed);
    }

    System sys(cfg);
    sys.setup();
    const auto t1 = Clock::now();
    const SimResult r = sys.measure();
    const double measure_s = secondsSince(t1);
    double lookups = 0.0;
    for (unsigned c = 0; c < cfg.cores; ++c)
        lookups += static_cast<double>(sys.tlb(c).hits() +
                                       sys.tlb(c).misses());
    const Replay rp = replayStream(sys, replayPerCore);
    const CodecCost codec = codecCost(cfg, 48);

    Json out;
    out.raw("layers", layerMetrics(cfg, r, measure_s, rp, codec).text())
        .raw("headline", headline(r))
        .raw("replay_counts_match", rp.countsMatch ? "true" : "false")
        .raw("engine_lookups_match",
             lookups == static_cast<double>(engineAccesses(cfg, r)) ? "true"
                                                                 : "false")
        .raw("codec_round_trip", codec.roundTrip ? "true" : "false")
        .raw("grid", workload == "figure-grid" ? grid.text() : "null")
        .num("traced_wall_s", secondsSince(t0));
    std::printf("%s\n", out.text().c_str());
    return 0;
}

// --------------------------------------------------------------- info

int
cmdInfo()
{
    std::printf("%s\n",
                Json()
                    .str("compiler", PERFBENCH_COMPILER)
                    .str("build_type", PERFBENCH_BUILD_TYPE)
                    .raw("tmcc_simd", PERFBENCH_SIMD ? "true" : "false")
                    .raw("tmcc_native", PERFBENCH_NATIVE ? "true" : "false")
                    .count("grid_jobs", gridJobs)
                    .text()
                    .c_str());
    return 0;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench_sim: %s\n"
                 "usage: perfbench_sim run|grid|trace|info [--workload W]"
                 " [--seed S] [--setup-only]\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseCount(const char *flag, const char *s)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0' || s[0] == '-')
        usage(std::string(flag) + " needs a non-negative integer, got \"" +
              s + "\"");
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage("missing command");
    const std::string cmd = argv[1];
    std::string workload;
    std::uint64_t seed = 1;
    bool setup_only = false;
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--setup-only") {
            setup_only = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const char *v = argv[++i];
        if (flag == "--workload")
            workload = v;
        else if (flag == "--seed")
            seed = parseCount("--seed", v);
        else
            usage("unknown flag " + flag);
    }
    if (cmd == "run")
        return cmdRun(workload, seed, setup_only);
    if (cmd == "grid")
        return cmdGrid(seed);
    if (cmd == "trace")
        return cmdTrace(workload, seed);
    if (cmd == "info")
        return cmdInfo();
    usage("unknown command " + cmd);
}
