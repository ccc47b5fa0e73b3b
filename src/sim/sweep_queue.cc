#include "sim/sweep_queue.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>

#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "common/log.hh"
#include "common/versioned_file.hh"
#include "sim/checkpoint.hh"
#include "sim/runner.hh"

namespace tmcc
{

namespace
{

namespace fs = std::filesystem;

constexpr char requestMagic[8] = {'T', 'M', 'C', 'C', 'Q', 'R', 'E', 'Q'};
constexpr char claimMagic[8] = {'T', 'M', 'C', 'C', 'C', 'L', 'A', 'M'};
constexpr char progressMagic[8] = {'T', 'M', 'C', 'C', 'P', 'R', 'O', 'G'};

std::atomic<std::uint64_t> queueSweepsTotal{0};
std::atomic<std::uint64_t> queueMergedTotal{0};
std::atomic<std::uint64_t> queueReclaimedTotal{0};
std::atomic<std::uint64_t> queueResumedTotal{0};

double
wallSeconds()
{
    struct timespec ts;
    ::clock_gettime(CLOCK_REALTIME, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

void
serializeClaim(ByteWriter &w, const ShardClaim &c)
{
    w.str(c.gridKey);
    w.u32(c.shardId);
    w.u32(c.attempt);
    w.str(c.owner);
    w.u64(c.heartbeatSeq);
    w.f64(c.leaseSeconds);
}

/** A claim whose file was renewed within its lease. */
bool
claimLive(const std::string &path, const ShardClaim &c)
{
    const double age = shardClaimAgeSeconds(path);
    return age >= 0.0 && age <= c.leaseSeconds;
}

/** Describe how a waitpid status ended. */
std::string
exitDescription(int status)
{
    if (WIFEXITED(status))
        return "exit status " + std::to_string(WEXITSTATUS(status));
    if (WIFSIGNALED(status))
        return "killed by signal " + std::to_string(WTERMSIG(status));
    return "wait status " + std::to_string(status);
}

/**
 * Fork dispatch's workers: drain-once daemons exec'ed from a local
 * binary.  Their lease is short because they share the client's clock
 * and filesystem; a killed worker's shard is reclaimable in seconds.
 */
class LocalWorkers
{
  public:
    LocalWorkers(const std::string &exe, const std::string &queueDir,
                 unsigned maxLaunches)
        : args_{exe, "--serve", queueDir, "--once", "--lease", "2",
                "--poll", "0.1", "--quiet"},
          maxLaunches_(maxLaunches)
    {}

    LocalWorkers(const LocalWorkers &) = delete;
    LocalWorkers &operator=(const LocalWorkers &) = delete;

    /** Stop every live worker.  Their shards are merged or given up
     * by now; a killed worker loses nothing but a stale claim. */
    ~LocalWorkers()
    {
        for (const pid_t pid : pids_) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, nullptr, 0);
        }
    }

    /** Reap workers that have exited (call before merging, so the
     * results of a worker that published and exited are seen). */
    void
    reap()
    {
        for (std::size_t i = 0; i < pids_.size();) {
            int status = 0;
            if (::waitpid(pids_[i], &status, WNOHANG) == pids_[i]) {
                lastExit_ = exitDescription(status);
                pids_[i] = pids_.back();
                pids_.pop_back();
            } else {
                ++i;
            }
        }
    }

    /** Top the pool up to `wanted` live workers while the launch
     * budget lasts; false when no worker is alive and none may be
     * launched. */
    bool
    topUp(unsigned wanted)
    {
        std::vector<char *> argv;
        for (std::string &a : args_)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        while (pids_.size() < wanted && launches_ < maxLaunches_) {
            const pid_t pid = ::fork();
            fatalIf(pid < 0, "fork() failed for a local sweep worker");
            if (pid == 0) {
                ::execv(argv[0], argv.data());
                std::fprintf(stderr, "exec %s failed: %s\n", argv[0],
                             std::strerror(errno));
                ::_exit(127);
            }
            pids_.push_back(pid);
            ++launches_;
        }
        return !pids_.empty();
    }

    unsigned launches() const { return launches_; }
    const std::string &lastExit() const { return lastExit_; }

  private:
    std::vector<std::string> args_;
    unsigned maxLaunches_;
    std::vector<pid_t> pids_;
    unsigned launches_ = 0;
    std::string lastExit_;
};

} // namespace

std::string
sweepShardFile(const std::string &dir, std::uint32_t id, const char *ext)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "/shard-%03u.%s", id, ext);
    return dir + buf;
}

std::string
sweepRequestPath(const std::string &sweepDir)
{
    return sweepDir + "/REQUEST.tmccq";
}

bool
sweepTestHookFires(const char *envName, std::uint32_t shard,
                   std::uint32_t attempt)
{
    const char *v = std::getenv(envName);
    if (!v || !*v)
        return false;
    const char *at = std::strchr(v, '@');
    fatalIf(at == nullptr,
            std::string(envName) + " wants <shard>@<attempt|*>, got \"" +
                v + "\"");
    char *end = nullptr;
    const unsigned long s = std::strtoul(v, &end, 10);
    fatalIf(end != at, std::string(envName) + " has a bad shard id");
    if (s != shard)
        return false;
    if (std::strcmp(at + 1, "*") == 0)
        return true;
    const unsigned long a = std::strtoul(at + 1, &end, 10);
    fatalIf(*end != '\0' || end == at + 1,
            std::string(envName) + " has a bad attempt number");
    return a == attempt;
}

unsigned
defaultShardCount()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp(hw, 1u, 64u);
}

Status
QueueRequest::save(const std::string &path) const
{
    ByteWriter w;
    w.str(gridKey);
    w.u32(shardCount);
    return writeVersionedFile(path, requestMagic, formatVersion,
                              w.buffer());
}

StatusOr<QueueRequest>
QueueRequest::load(const std::string &path)
{
    TMCC_ASSIGN_OR_RETURN(
        const std::vector<std::uint8_t> payload,
        readVersionedFile(path, requestMagic, formatVersion));
    ByteReader r(payload);
    QueueRequest req;
    req.gridKey = r.str();
    req.shardCount = r.u32();
    TMCC_RETURN_IF_ERROR(r.finish("QueueRequest"));
    if (req.shardCount == 0)
        return Status::corruption("QueueRequest with zero shards");
    return req;
}

Status
ShardClaim::saveExclusive(const std::string &path) const
{
    ByteWriter w;
    serializeClaim(w, *this);
    return writeVersionedFileExclusive(path, claimMagic, formatVersion,
                                       w.buffer());
}

Status
ShardClaim::saveRenew(const std::string &path) const
{
    ByteWriter w;
    serializeClaim(w, *this);
    return writeVersionedFile(path, claimMagic, formatVersion,
                              w.buffer());
}

StatusOr<ShardClaim>
ShardClaim::load(const std::string &path)
{
    TMCC_ASSIGN_OR_RETURN(
        const std::vector<std::uint8_t> payload,
        readVersionedFile(path, claimMagic, formatVersion));
    ByteReader r(payload);
    ShardClaim c;
    c.gridKey = r.str();
    c.shardId = r.u32();
    c.attempt = r.u32();
    c.owner = r.str();
    c.heartbeatSeq = r.u64();
    c.leaseSeconds = r.f64();
    TMCC_RETURN_IF_ERROR(r.finish("ShardClaim"));
    if (c.owner.empty() || c.attempt == 0 ||
        !std::isfinite(c.leaseSeconds) || c.leaseSeconds <= 0.0)
        return Status::corruption(path + ": implausible claim record");
    return c;
}

Status
ShardProgress::save(const std::string &path) const
{
    ByteWriter w;
    w.str(gridKey);
    w.u32(shardId);
    w.u32(attempt);
    w.str(owner);
    w.u64(configsDone);
    w.u64(configsTotal);
    w.u64(accessesDone);
    w.u64(epochsSeen);
    w.f64(lastMl2AccessRate);
    w.f64(lastCteHitRate);
    w.f64(lastDramUsedBytes);
    return writeVersionedFile(path, progressMagic, formatVersion,
                              w.buffer());
}

StatusOr<ShardProgress>
ShardProgress::load(const std::string &path)
{
    TMCC_ASSIGN_OR_RETURN(
        const std::vector<std::uint8_t> payload,
        readVersionedFile(path, progressMagic, formatVersion));
    ByteReader r(payload);
    ShardProgress p;
    p.gridKey = r.str();
    p.shardId = r.u32();
    p.attempt = r.u32();
    p.owner = r.str();
    p.configsDone = r.u64();
    p.configsTotal = r.u64();
    p.accessesDone = r.u64();
    p.epochsSeen = r.u64();
    p.lastMl2AccessRate = r.f64();
    p.lastCteHitRate = r.f64();
    p.lastDramUsedBytes = r.f64();
    TMCC_RETURN_IF_ERROR(r.finish("ShardProgress"));
    return p;
}

double
shardClaimAgeSeconds(const std::string &path)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return -1.0;
    const double mtime = static_cast<double>(st.st_mtim.tv_sec) +
                         static_cast<double>(st.st_mtim.tv_nsec) * 1e-9;
    return wallSeconds() - mtime;
}

ClaimAttempt
tryClaimShard(const std::string &dir, const std::string &gridKey,
              std::uint32_t shardId, const std::string &owner,
              double leaseSeconds)
{
    const std::string path = sweepShardFile(dir, shardId, "claim");
    ClaimAttempt out;
    out.claim.gridKey = gridKey;
    out.claim.shardId = shardId;
    out.claim.owner = owner;
    out.claim.heartbeatSeq = 0;
    out.claim.leaseSeconds = leaseSeconds;
    out.claim.attempt = 1;

    std::error_code ec;
    if (fs::exists(path, ec)) {
        auto existing = ShardClaim::load(path);
        if (existing.ok()) {
            const ShardClaim &held = existing.value();
            if (claimLive(path, held)) {
                out.reason = "held by " + held.owner;
                return out;
            }
            // Stale: the owner died or stalled past its lease.  The
            // next claimant inherits the attempt count (failure hooks,
            // reclaim accounting and the attempt cap key off it).
            if (held.attempt >= kMaxShardAttempts) {
                out.reason = "exhausted after " +
                             std::to_string(held.attempt) + " attempts";
                return out;
            }
            out.claim.attempt = held.attempt + 1;
        }
        // Corrupt/truncated claims are never trusted: reclaim now.
        fs::remove(path, ec); // ENOENT = another reclaimer was faster
        out.reclaimed = true;
    }

    const Status st = out.claim.saveExclusive(path);
    if (st.ok()) {
        out.claimed = true;
        return out;
    }
    // EEXIST = lost the create race to a concurrent claimant; any
    // other error (unwritable dir, ...) also reads as "not ours".
    out.reclaimed = false;
    out.reason = "lost claim race: " + st.toString();
    return out;
}

bool
shardExhausted(const std::string &dir, std::uint32_t shardId,
               ShardClaim *last)
{
    const std::string path = sweepShardFile(dir, shardId, "claim");
    std::error_code ec;
    if (!fs::exists(path, ec))
        return false;
    auto claim = ShardClaim::load(path);
    if (!claim.ok() || claim.value().attempt < kMaxShardAttempts ||
        claimLive(path, claim.value()))
        return false;
    if (last)
        *last = claim.value();
    return true;
}

Status
renewShardClaim(const std::string &dir, ShardClaim &claim)
{
    const std::string path =
        sweepShardFile(dir, claim.shardId, "claim");
    auto current = ShardClaim::load(path);
    if (!current.ok())
        return Status::internal("lease lost (claim unreadable): " +
                                current.status().toString());
    const ShardClaim &cur = current.value();
    if (cur.owner != claim.owner || cur.attempt != claim.attempt ||
        cur.gridKey != claim.gridKey)
        return Status::internal("lease stolen by " + cur.owner +
                                " (attempt " +
                                std::to_string(cur.attempt) + ")");
    ++claim.heartbeatSeq;
    return claim.saveRenew(path);
}

void
releaseShardClaim(const std::string &dir, const ShardClaim &claim)
{
    const std::string path =
        sweepShardFile(dir, claim.shardId, "claim");
    auto current = ShardClaim::load(path);
    if (!current.ok() || current.value().owner != claim.owner ||
        current.value().attempt != claim.attempt)
        return; // not ours any more; leave it alone
    std::error_code ec;
    fs::remove(path, ec);
}

void
QueueOptions::validate() const
{
    fatalIf(queueDir.empty(),
            "queue dispatch needs a queue directory (--queue-dir)");
    fatalIf(!std::isfinite(pollSeconds) || pollSeconds <= 0.0,
            "queue poll interval must be a positive number of seconds");
    fatalIf(!std::isfinite(timeoutSeconds) || timeoutSeconds < 0.0,
            "queue timeout must be >= 0 seconds (0 = wait forever)");
    fatalIf(workerJobs == 0,
            "queue worker jobs must be a positive integer");
}

QueueClient::QueueClient(QueueOptions opts) : opts_(std::move(opts))
{
    opts_.validate();
}

QueueClient::Totals
QueueClient::totals()
{
    Totals t;
    t.sweeps = queueSweepsTotal.load();
    t.mergedShards = queueMergedTotal.load();
    t.reclaimedShards = queueReclaimedTotal.load();
    t.resumedShards = queueResumedTotal.load();
    return t;
}

void
QueueClient::resetTotals()
{
    queueSweepsTotal = 0;
    queueMergedTotal = 0;
    queueReclaimedTotal = 0;
    queueResumedTotal = 0;
}

std::string
QueueClient::enqueue(const std::vector<SimConfig> &grid)
{
    fatalIf(grid.empty(), "queue sweep needs a non-empty grid");

    const std::string key = sweepGridKey(grid);
    const std::string name = !opts_.sweepName.empty()
                                 ? opts_.sweepName
                                 : "sweep-" + key.substr(0, 8);
    const std::string dir = opts_.queueDir + "/" + name;
    std::error_code ec;
    fs::create_directories(dir, ec);
    fatalIf(!fs::is_directory(dir, ec),
            "cannot create sweep directory " + dir);

    // Load or create the manifest; the partition must be stable across
    // re-enqueues so workers and client agree on config indices.
    const std::string mpath = dir + "/MANIFEST.tmccsweep";
    SweepManifest manifest;
    bool have_manifest = false;
    if (fs::exists(mpath, ec)) {
        auto loaded = SweepManifest::load(mpath);
        if (loaded.ok()) {
            manifest = std::move(loaded).value();
            fatalIf(manifest.gridKey != key,
                    "queue sweep directory " + dir +
                        " holds a different sweep (manifest grid " +
                        manifest.gridKey + ", this grid " + key +
                        "); use a fresh sweep name");
            fatalIf(manifest.totalConfigs != grid.size(),
                    "queue sweep manifest config count mismatch");
            have_manifest = true;
        } else {
            warn("queue sweep manifest rejected, re-partitioning: " +
                 loaded.status().toString());
        }
    }
    if (!have_manifest) {
        const unsigned want =
            opts_.shards ? opts_.shards : defaultShardCount();
        const unsigned n_shards = static_cast<unsigned>(
            std::min<std::size_t>(want, grid.size()));
        manifest.gridKey = key;
        manifest.totalConfigs = grid.size();
        manifest.shards.assign(n_shards, SweepManifest::Shard{});
        for (unsigned s = 0; s < n_shards; ++s)
            manifest.shards[s].id = s;
        for (std::size_t i = 0; i < grid.size(); ++i)
            manifest.shards[i % n_shards].configIndices.push_back(i);
        fatalIf(!manifest.save(mpath).ok(),
                "cannot write sweep manifest " + mpath);
    }

    // Shard specs: the work orders the daemons execute.  Written (or
    // refreshed) before the request marker so a visible request always
    // has complete specs.  An exhausted claim is cleared so a re-enqueue
    // gives its shard a fresh attempt budget.
    for (const SweepManifest::Shard &shard : manifest.shards) {
        ShardSpec spec;
        spec.gridKey = key;
        spec.shardId = shard.id;
        spec.workerJobs = opts_.workerJobs;
        spec.configIndices = shard.configIndices;
        for (std::uint64_t idx : shard.configIndices)
            spec.configs.push_back(grid[idx]);
        const std::string spath = sweepShardFile(dir, shard.id, "spec");
        fatalIf(!spec.save(spath).ok(),
                "cannot write shard spec " + spath);
        if (shardExhausted(dir, shard.id))
            fs::remove(sweepShardFile(dir, shard.id, "claim"), ec);
    }

    QueueRequest req;
    req.gridKey = key;
    req.shardCount = static_cast<std::uint32_t>(manifest.shards.size());
    fatalIf(!req.save(sweepRequestPath(dir)).ok(),
            "cannot write queue request in " + dir);
    queueSweepsTotal.fetch_add(1);
    return dir;
}

SweepOutcome
QueueClient::run(const std::vector<SimConfig> &grid,
                 const std::string &localWorker)
{
    const std::string key = sweepGridKey(grid);
    const std::string dir = enqueue(grid);
    const std::string mpath = dir + "/MANIFEST.tmccsweep";
    auto manifest_or = SweepManifest::load(mpath);
    fatalIf(!manifest_or.ok(), "queue sweep manifest unreadable after "
                               "enqueue: " +
                                   manifest_or.status().toString());
    SweepManifest manifest = std::move(manifest_or).value();

    SweepOutcome out;
    out.results.resize(grid.size());
    out.resultValid.assign(grid.size(), false);

    // A shard is finished once merged or Failed.
    std::vector<bool> finished(manifest.shards.size(), false);
    unsigned unfinished = static_cast<unsigned>(manifest.shards.size());

    const auto try_merge = [&](std::size_t s, bool resume) -> bool {
        SweepManifest::Shard &shard = manifest.shards[s];
        const std::string rpath =
            sweepShardFile(dir, shard.id, "result");
        std::error_code ec;
        if (!fs::exists(rpath, ec))
            return false;
        auto loaded = ShardResultFile::load(rpath);
        if (!loaded.ok()) {
            // Torn/corrupt publications never merge; the lease
            // protocol will have the shard re-run.
            if (!resume)
                warn("shard " + std::to_string(shard.id) +
                     " result rejected: " + loaded.status().toString());
            return false;
        }
        const ShardResultFile &file = loaded.value();
        if (file.gridKey != key ||
            file.configIndices != shard.configIndices)
            return false;
        for (std::size_t i = 0; i < file.configIndices.size(); ++i) {
            const std::uint64_t idx = file.configIndices[i];
            fatalIf(idx >= grid.size(),
                    "shard result index beyond the grid");
            out.results[idx] = file.results[i];
            out.resultValid[idx] = true;
            SimRunner::recordExternalRun(file.results[i]);
        }
        // Fold the worker's checkpoint traffic into this process's
        // counters so the merged BENCH report carries sweep-wide
        // checkpoint hit counts.
        CheckpointStore::Stats ck;
        ck.memoryHits = file.ckptMemoryHits;
        ck.diskHits = file.ckptDiskHits;
        ck.misses = file.ckptMisses;
        ck.rejectedFiles = file.ckptRejected;
        CheckpointStore::global().recordExternal(ck);

        finished[s] = true;
        --unfinished;
        ++out.completedShards;
        queueMergedTotal.fetch_add(1);
        if (resume) {
            ++out.resumedShards;
            queueResumedTotal.fetch_add(1);
        }
        // The shard needed more than one claim.  Only the first merge
        // counts it: a shard the manifest already records as Done is
        // resumed history, not a reclaim of this sweep.
        if (file.attempt > 1 && shard.state != ShardState::Done) {
            queueReclaimedTotal.fetch_add(1);
            ++out.retries;
        }
        shard.state = ShardState::Done;
        shard.attempts = file.attempt;
        shard.lastError.clear();
        if (opts_.verbose)
            std::printf("[queue] shard %u merged (%zu configs, "
                        "attempt %u%s)\n",
                        shard.id, shard.configIndices.size(),
                        file.attempt, resume ? ", resumed" : "");
        return true;
    };

    const auto fail = [&](std::size_t s, std::uint32_t attempts,
                          const std::string &why) {
        SweepManifest::Shard &shard = manifest.shards[s];
        shard.state = ShardState::Failed;
        shard.attempts = attempts;
        shard.lastError = why;
        finished[s] = true;
        --unfinished;
        ++out.failedShards;
        warn("shard " + std::to_string(shard.id) + " failed: " + why);
    };

    for (std::size_t s = 0; s < manifest.shards.size(); ++s) {
        if (try_merge(s, /*resume=*/true))
            continue;
        // Interrupted and previously Failed shards run again.
        manifest.shards[s].state = ShardState::Pending;
        manifest.shards[s].attempts = 0;
        manifest.shards[s].lastError.clear();
    }
    if (!manifest.save(mpath).ok())
        warn("cannot save queue sweep manifest " + mpath);

    std::unique_ptr<LocalWorkers> workers;
    if (!localWorker.empty() && unfinished > 0)
        workers = std::make_unique<LocalWorkers>(
            localWorker, opts_.queueDir,
            kMaxShardAttempts * static_cast<unsigned>(
                                    manifest.shards.size()));
    else if (opts_.verbose && unfinished > 0)
        std::printf("[queue] waiting for %u/%zu shards in %s "
                    "(serve with: tmccsim --serve %s)\n",
                    unfinished, manifest.shards.size(), dir.c_str(),
                    opts_.queueDir.c_str());

    const double deadline =
        opts_.timeoutSeconds > 0.0
            ? wallSeconds() + opts_.timeoutSeconds
            : 0.0;
    double next_progress = wallSeconds() + 5.0;
    bool timed_out = false;

    while (unfinished > 0) {
        if (workers)
            workers->reap();
        bool changed = false;
        for (std::size_t s = 0; s < manifest.shards.size(); ++s) {
            if (finished[s])
                continue;
            if (try_merge(s, /*resume=*/false)) {
                changed = true;
                continue;
            }
            ShardClaim last;
            if (shardExhausted(dir, manifest.shards[s].id, &last)) {
                fail(s, last.attempt,
                     "exhausted " + std::to_string(last.attempt) +
                         " attempts (last owner " + last.owner + ")");
                changed = true;
            }
        }
        if (workers && unfinished > 0 && !workers->topUp(unfinished)) {
            for (std::size_t s = 0; s < manifest.shards.size(); ++s)
                if (!finished[s])
                    fail(s, 0,
                         "no local worker left after " +
                             std::to_string(workers->launches()) +
                             " launches (last: " + workers->lastExit() +
                             ")");
            changed = true;
        }
        if (changed && !manifest.save(mpath).ok())
            warn("cannot save queue sweep manifest " + mpath);
        if (unfinished == 0)
            break;

        const double now = wallSeconds();
        if (opts_.verbose && now >= next_progress) {
            next_progress = now + 5.0;
            for (std::size_t s = 0; s < manifest.shards.size(); ++s) {
                if (finished[s])
                    continue;
                const std::uint32_t id = manifest.shards[s].id;
                auto prog = ShardProgress::load(
                    sweepShardFile(dir, id, "progress"));
                auto cl = ShardClaim::load(
                    sweepShardFile(dir, id, "claim"));
                if (prog.ok() && cl.ok())
                    std::printf("[queue] shard %u: %llu/%llu configs "
                                "by %s (attempt %u)\n",
                                id,
                                static_cast<unsigned long long>(
                                    prog.value().configsDone),
                                static_cast<unsigned long long>(
                                    prog.value().configsTotal),
                                cl.value().owner.c_str(),
                                cl.value().attempt);
                else if (cl.ok())
                    std::printf("[queue] shard %u: claimed by %s\n", id,
                                cl.value().owner.c_str());
                else
                    std::printf("[queue] shard %u: unclaimed\n", id);
            }
        }
        if (deadline > 0.0 && now > deadline) {
            timed_out = true;
            break;
        }
        std::this_thread::sleep_for(
            std::chrono::duration<double>(opts_.pollSeconds));
    }
    workers.reset(); // kill + reap whatever is still running

    if (!timed_out) {
        // Retire the request so daemons stop rescanning this sweep;
        // the results stay for resume.
        std::error_code ec;
        fs::remove(sweepRequestPath(dir), ec);
    } else {
        for (std::size_t s = 0; s < manifest.shards.size(); ++s) {
            if (finished[s])
                continue;
            manifest.shards[s].lastError =
                "queue timeout after " +
                std::to_string(opts_.timeoutSeconds) + "s";
            ++out.failedShards;
            warn("shard " + std::to_string(manifest.shards[s].id) +
                 " not served before the queue timeout");
        }
    }
    out.shards = manifest.shards;
    return out;
}

} // namespace tmcc
