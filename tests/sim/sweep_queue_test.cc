/**
 * @file
 * Lease-based sweep work queue (sim/sweep_queue.hh, sim/sweep_daemon.hh):
 * the claim/renew/release protocol must hand every shard to exactly one
 * live worker — across stale-lease reclaim after a worker SIGKILL,
 * N-way claim races, heartbeat renewal under a slow shard, corrupt
 * claim files, and the attempt cap — and a sweep dispatched to queue
 * daemons or to local fork workers must merge bit-identically with a
 * serial SimRunner run, including after a worker SIGKILL and a resume.
 *
 * This binary is its own worker: main() dispatches `--serve DIR ...`
 * to sweepDaemonMain before gtest initialization, so tests can run it
 * as fork dispatch's local workers or fork+exec it as a victim daemon
 * and SIGKILL it (via TMCC_QUEUE_TEST_KILL) mid-shard.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "sim/checkpoint.hh"
#include "sim/runner.hh"
#include "sim/sweep_daemon.hh"
#include "sim/sweep_manifest.hh"
#include "sim/sweep_queue.hh"
#include "tests/sim/result_compare.hh"

namespace tmcc
{
namespace
{

namespace fs = std::filesystem;

SimConfig
tinyConfig(Arch arch, const std::string &workload, double scale = 0.02)
{
    SimConfig cfg = SimConfig::scaledDefault();
    cfg.workload = workload;
    cfg.scale = scale;
    cfg.arch = arch;
    cfg.placementAccesses = 10'000;
    cfg.warmAccesses = 5'000;
    cfg.measureAccesses = 10'000;
    return cfg;
}

std::vector<SimConfig>
grid()
{
    return {
        tinyConfig(Arch::NoCompression, "pageRank"),
        tinyConfig(Arch::Tmcc, "pageRank"),
        tinyConfig(Arch::Compresso, "stream"),
        tinyConfig(Arch::Tmcc, "blackscholes", 0.1),
    };
}

/** Serial ground truth, computed once per test binary. */
const std::vector<SimResult> &
serialBaseline()
{
    static const std::vector<SimResult> results =
        SimRunner(1).run(grid());
    return results;
}

/** Every config merged and bit-identical to the serial run. */
void
expectMergedMatchesSerial(const SweepOutcome &out)
{
    const auto &serial = serialBaseline();
    ASSERT_EQ(out.results.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("config " + std::to_string(i));
        ASSERT_TRUE(out.resultValid[i]);
        expectIdentical(serial[i], out.results[i]);
    }
}

/** Fork+exec this binary as a drain-once daemon on `queueDir`. */
pid_t
spawnDaemon(const std::string &queueDir, const char *lease,
            const char *workerId)
{
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::execl("/proc/self/exe", "sweep_queue_test", "--serve",
                queueDir.c_str(), "--lease", lease, "--poll", "0.05",
                "--once", "--no-sweep-ckpt", "--quiet", "--worker-id",
                workerId, (char *)nullptr);
        ::_exit(127); // exec failed
    }
    return pid;
}

class SweepQueueTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ::unsetenv("TMCC_QUEUE_TEST_KILL");
        QueueClient::resetTotals();
        dir_ = fs::temp_directory_path() /
               ("tmcc_sweep_queue_test_" + std::to_string(::getpid()) +
                "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void
    TearDown() override
    {
        ::unsetenv("TMCC_QUEUE_TEST_KILL");
        fs::remove_all(dir_);
    }

    std::string
    queueDir() const
    {
        return (dir_ / "queue").string();
    }

    QueueOptions
    clientOptions() const
    {
        QueueOptions o;
        o.queueDir = queueDir();
        o.sweepName = "sweep-under-test";
        o.shards = 2;
        o.workerJobs = 1;
        o.pollSeconds = 0.05;
        o.timeoutSeconds = 120.0; // never hit; bounds a deadlock
        o.verbose = false;
        return o;
    }

    DaemonOptions
    daemonOptions(double lease = 5.0) const
    {
        DaemonOptions o;
        o.queueDir = queueDir();
        o.workerId = "test-daemon";
        o.jobs = 1;
        o.leaseSeconds = lease;
        o.pollSeconds = 0.05;
        o.once = true;
        o.defaultCkptDir = false; // keep the global store's disk dir
        o.verbose = false;
        return o;
    }

    fs::path dir_;
};

// ---------------------------------------------------------------------
// Claim protocol.

TEST_F(SweepQueueTest, ClaimLifecycle)
{
    const std::string dir = dir_.string();
    ClaimAttempt first = tryClaimShard(dir, "grid-a", 0, "w1", 5.0);
    ASSERT_TRUE(first.claimed);
    EXPECT_FALSE(first.reclaimed);
    EXPECT_EQ(first.claim.attempt, 1u);
    EXPECT_EQ(first.claim.owner, "w1");

    // A live claim repels other workers, with a reason naming the
    // holder.
    ClaimAttempt second = tryClaimShard(dir, "grid-a", 0, "w2", 5.0);
    EXPECT_FALSE(second.claimed);
    EXPECT_NE(second.reason.find("held by w1"), std::string::npos);

    // Renewal bumps the heartbeat sequence and keeps ownership.
    ASSERT_TRUE(renewShardClaim(dir, first.claim).ok());
    EXPECT_EQ(first.claim.heartbeatSeq, 1u);
    auto onDisk = ShardClaim::load(sweepShardFile(dir, 0, "claim"));
    ASSERT_TRUE(onDisk.ok());
    EXPECT_EQ(onDisk->heartbeatSeq, 1u);
    EXPECT_EQ(onDisk->owner, "w1");

    // Release drops the file; the next claim starts fresh at attempt 1.
    releaseShardClaim(dir, first.claim);
    EXPECT_FALSE(fs::exists(sweepShardFile(dir, 0, "claim")));
    ClaimAttempt third = tryClaimShard(dir, "grid-a", 0, "w2", 5.0);
    ASSERT_TRUE(third.claimed);
    EXPECT_EQ(third.claim.attempt, 1u);
}

TEST_F(SweepQueueTest, StaleLeaseIsReclaimedWithAttemptBump)
{
    const std::string dir = dir_.string();
    ClaimAttempt dead = tryClaimShard(dir, "grid-a", 3, "dead", 0.2);
    ASSERT_TRUE(dead.claimed);
    std::this_thread::sleep_for(std::chrono::milliseconds(500));

    // 0.5s > the 0.2s lease: any worker may displace the claim, and
    // the new claim inherits the attempt count.
    ClaimAttempt taken = tryClaimShard(dir, "grid-a", 3, "w2", 5.0);
    ASSERT_TRUE(taken.claimed);
    EXPECT_TRUE(taken.reclaimed);
    EXPECT_EQ(taken.claim.attempt, 2u);
    EXPECT_EQ(taken.claim.owner, "w2");
}

TEST_F(SweepQueueTest, CorruptClaimFileIsNeverTrusted)
{
    const std::string dir = dir_.string();
    const std::string path = sweepShardFile(dir, 1, "claim");
    FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a claim file", f);
    std::fclose(f);

    // Corrupt claims are reclaimed immediately (no lease wait) and the
    // attempt count resets: a forged/torn attempt is never inherited.
    ClaimAttempt taken = tryClaimShard(dir, "grid-a", 1, "w1", 5.0);
    ASSERT_TRUE(taken.claimed);
    EXPECT_TRUE(taken.reclaimed);
    EXPECT_EQ(taken.claim.attempt, 1u);
}

TEST_F(SweepQueueTest, RenewDetectsTheftAfterLeaseExpiry)
{
    const std::string dir = dir_.string();
    ClaimAttempt slow = tryClaimShard(dir, "grid-a", 0, "slow", 0.2);
    ASSERT_TRUE(slow.claimed);
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    ClaimAttempt thief = tryClaimShard(dir, "grid-a", 0, "fast", 5.0);
    ASSERT_TRUE(thief.claimed);

    // The stalled owner's renewal must fail (its lease was reclaimed),
    // and its release must leave the thief's claim untouched.
    EXPECT_FALSE(renewShardClaim(dir, slow.claim).ok());
    releaseShardClaim(dir, slow.claim);
    auto onDisk = ShardClaim::load(sweepShardFile(dir, 0, "claim"));
    ASSERT_TRUE(onDisk.ok());
    EXPECT_EQ(onDisk->owner, "fast");
}

TEST_F(SweepQueueTest, HeartbeatRenewalKeepsSlowShardClaimed)
{
    // A shard running much longer than its lease stays claimed as long
    // as the heartbeat renews: competitors must be repelled throughout
    // 3x the lease duration.
    const std::string dir = dir_.string();
    ClaimAttempt slow = tryClaimShard(dir, "grid-a", 0, "slow", 0.5);
    ASSERT_TRUE(slow.claimed);
    for (int i = 0; i < 12; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(125));
        ASSERT_TRUE(renewShardClaim(dir, slow.claim).ok());
        ClaimAttempt rival =
            tryClaimShard(dir, "grid-a", 0, "rival", 0.5);
        ASSERT_FALSE(rival.claimed) << "iteration " << i;
        EXPECT_NE(rival.reason.find("held by slow"),
                  std::string::npos);
    }
    EXPECT_EQ(slow.claim.heartbeatSeq, 12u);
    releaseShardClaim(dir, slow.claim);
}

TEST_F(SweepQueueTest, NWayClaimRaceHasExactlyOneWinner)
{
    // 8 processes race to exclusive-create the same claim file; the
    // link(2) protocol guarantees exactly one winner.
    const std::string dir = dir_.string();
    constexpr int racers = 8;
    std::vector<pid_t> pids;
    for (int i = 0; i < racers; ++i) {
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            ClaimAttempt a = tryClaimShard(
                dir, "grid-a", 0, "racer-" + std::to_string(i), 5.0);
            ::_exit(a.claimed ? 10 : 20);
        }
        pids.push_back(pid);
    }
    int winners = 0, losers = 0;
    for (const pid_t pid : pids) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        if (WEXITSTATUS(status) == 10)
            ++winners;
        else if (WEXITSTATUS(status) == 20)
            ++losers;
    }
    EXPECT_EQ(winners, 1);
    EXPECT_EQ(losers, racers - 1);
    EXPECT_TRUE(fs::exists(sweepShardFile(dir, 0, "claim")));
}

TEST_F(SweepQueueTest, ExclusiveSaveRefusesExistingFile)
{
    ShardClaim c;
    c.gridKey = "grid-a";
    c.owner = "w1";
    const std::string path = sweepShardFile(dir_.string(), 7, "claim");
    ASSERT_TRUE(c.saveExclusive(path).ok());
    EXPECT_FALSE(c.saveExclusive(path).ok());
}

TEST_F(SweepQueueTest, QueueRequestRejectsZeroShards)
{
    QueueRequest req;
    req.gridKey = "grid-a";
    req.shardCount = 0;
    const std::string path = sweepRequestPath(dir_.string());
    ASSERT_TRUE(req.save(path).ok());
    EXPECT_FALSE(QueueRequest::load(path).ok());
}

TEST_F(SweepQueueTest, TestHookMatchesShardAndAttempt)
{
    ::setenv("TMCC_QUEUE_TEST_KILL", "1@2", 1);
    EXPECT_TRUE(sweepTestHookFires("TMCC_QUEUE_TEST_KILL", 1, 2));
    EXPECT_FALSE(sweepTestHookFires("TMCC_QUEUE_TEST_KILL", 1, 1));
    EXPECT_FALSE(sweepTestHookFires("TMCC_QUEUE_TEST_KILL", 0, 2));
    ::setenv("TMCC_QUEUE_TEST_KILL", "1@*", 1);
    EXPECT_TRUE(sweepTestHookFires("TMCC_QUEUE_TEST_KILL", 1, 7));
    ::unsetenv("TMCC_QUEUE_TEST_KILL");
    EXPECT_FALSE(sweepTestHookFires("TMCC_QUEUE_TEST_KILL", 1, 1));
}

TEST_F(SweepQueueTest, DefaultShardCountIsClamped)
{
    const unsigned n = defaultShardCount();
    EXPECT_GE(n, 1u);
    EXPECT_LE(n, 64u);
}

// ---------------------------------------------------------------------
// Daemon end to end.

TEST_F(SweepQueueTest, QueueSweepBitIdenticalToSerial)
{
    // Client enqueues on one thread; an in-process daemon drains the
    // queue; the merged outcome must be indistinguishable from serial.
    QueueClient client(clientOptions());
    SweepDaemon daemon(daemonOptions());
    std::thread server([&] {
        // Poll until the request appears, then drain it.
        while (daemon.serve() == 0 &&
               !fs::exists(sweepRequestPath(queueDir() +
                                            "/sweep-under-test")))
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
    SweepOutcome out = client.run(grid());
    server.join();

    EXPECT_TRUE(out.ok());
    EXPECT_EQ(out.completedShards, 2u);
    EXPECT_EQ(out.failedShards, 0u);
    const auto &serial = serialBaseline();
    ASSERT_EQ(out.results.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("config " + std::to_string(i));
        ASSERT_TRUE(out.resultValid[i]);
        expectIdentical(serial[i], out.results[i]);
    }
    EXPECT_GE(daemon.stats().shardsServed, 2u);
    EXPECT_EQ(daemon.stats().configsRun, 4u);

    // The client retired the request marker; results stay for resume.
    EXPECT_FALSE(fs::exists(
        sweepRequestPath(queueDir() + "/sweep-under-test")));

    // A re-run of the same grid resumes entirely from disk: no daemon
    // is needed and no shard re-runs.
    QueueClient again(clientOptions());
    SweepOutcome resumed = again.run(grid());
    EXPECT_TRUE(resumed.ok());
    EXPECT_EQ(resumed.resumedShards, 2u);
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectIdentical(serial[i], resumed.results[i]);
    EXPECT_EQ(QueueClient::totals().resumedShards, 2u);
}

TEST_F(SweepQueueTest, SigkilledDaemonIsReclaimedBySurvivor)
{
    // A victim daemon (this binary, re-exec'ed) claims shard 0 and is
    // SIGKILLed by the test hook after its first config — publishing
    // nothing, leaving a live-looking claim.  A survivor daemon must
    // wait out the lease, reclaim at attempt 2, and serve the shard;
    // the merged sweep stays bit-identical.
    QueueOptions qopts = clientOptions();
    qopts.shards = 1; // one shard holding all four configs
    QueueClient client(qopts);
    const std::string sweepDir = client.enqueue(grid());

    ::setenv("TMCC_QUEUE_TEST_KILL", "0@1", 1);
    const pid_t victim = spawnDaemon(queueDir(), "0.5", "victim");
    ASSERT_GE(victim, 0);
    ::unsetenv("TMCC_QUEUE_TEST_KILL");

    int status = 0;
    ASSERT_EQ(::waitpid(victim, &status, 0), victim);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGKILL);
    EXPECT_FALSE(fs::exists(sweepShardFile(sweepDir, 0, "result")));
    EXPECT_TRUE(fs::exists(sweepShardFile(sweepDir, 0, "claim")));

    // The survivor's first scans find the orphaned claim still inside
    // its 0.5s lease; it must keep polling, reclaim once stale, and
    // serve the shard at attempt 2.
    SweepDaemon survivor(daemonOptions(/*lease=*/0.5));
    EXPECT_EQ(survivor.serve(), 1u);
    EXPECT_EQ(survivor.stats().reclaims, 1u);

    SweepOutcome out = client.run(grid());
    EXPECT_TRUE(out.ok());
    EXPECT_EQ(out.retries, 1u); // merged result carries attempt 2
    ASSERT_EQ(out.shards.size(), 1u);
    EXPECT_EQ(out.shards[0].attempts, 2u);
    const auto &serial = serialBaseline();
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("config " + std::to_string(i));
        ASSERT_TRUE(out.resultValid[i]);
        expectIdentical(serial[i], out.results[i]);
    }
    EXPECT_EQ(QueueClient::totals().reclaimedShards, 1u);
}

TEST_F(SweepQueueTest, PoisonShardFailsAtAttemptCapWithoutTimeout)
{
    // Shard 1 kills every daemon that claims it.  Two daemons (this
    // binary, re-exec'ed; each dead one is replaced) serve the queue.
    // The claim left stale at attempt kMaxShardAttempts must not be
    // reclaimed, so the client — with no timeout — ends with shard 1
    // Failed instead of feeding it daemons forever.
    QueueOptions qopts = clientOptions();
    qopts.timeoutSeconds = 0.0;
    QueueClient client(qopts);
    client.enqueue(grid());

    std::atomic<bool> done{false};
    SweepOutcome out;
    std::thread enqueuer([&] {
        out = client.run(grid());
        done = true;
    });
    ::setenv("TMCC_QUEUE_TEST_KILL", "1@*", 1);
    std::vector<pid_t> daemons;
    unsigned launched = 0;
    while (!done.load()) {
        for (std::size_t i = 0; i < daemons.size();) {
            if (::waitpid(daemons[i], nullptr, WNOHANG) == daemons[i]) {
                daemons[i] = daemons.back();
                daemons.pop_back();
            } else {
                ++i;
            }
        }
        while (daemons.size() < 2) {
            const std::string id = "d" + std::to_string(++launched);
            daemons.push_back(spawnDaemon(queueDir(), "0.3", id.c_str()));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    enqueuer.join();
    ::unsetenv("TMCC_QUEUE_TEST_KILL");
    for (const pid_t pid : daemons) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
    }

    EXPECT_FALSE(out.ok());
    EXPECT_EQ(out.completedShards, 1u);
    EXPECT_EQ(out.failedShards, 1u);
    ASSERT_EQ(out.shards.size(), 2u);
    EXPECT_EQ(out.shards[0].state, ShardState::Done);
    EXPECT_EQ(out.shards[1].state, ShardState::Failed);
    EXPECT_EQ(out.shards[1].attempts, kMaxShardAttempts);
    EXPECT_NE(out.shards[1].lastError.find("last owner d"),
              std::string::npos);
    for (const std::uint64_t i : out.shards[0].configIndices)
        expectIdentical(serialBaseline()[i], out.results[i]);
    for (const std::uint64_t i : out.shards[1].configIndices)
        EXPECT_FALSE(out.resultValid[i]);
}

TEST_F(SweepQueueTest, DaemonDefaultsCkptDirIntoSweepDir)
{
    // Serving a shard defaults the disk checkpoint dir to
    // <sweep-dir>/ckpt (unless configured), so every daemon of a sweep
    // shares warm setups through the sweep directory itself.
    CheckpointStore &store = CheckpointStore::global();
    const std::string saved = store.diskDir();
    store.setDiskDir("");
    // Drop memoized setups so the daemon's runs miss and must persist
    // fresh checkpoints into the defaulted directory.
    store.clear();

    QueueOptions qopts = clientOptions();
    qopts.shards = 1;
    QueueClient client(qopts);
    const std::string sweepDir = client.enqueue(grid());

    DaemonOptions dopts = daemonOptions();
    dopts.defaultCkptDir = true;
    SweepDaemon daemon(dopts);
    EXPECT_EQ(daemon.serve(), 1u);
    if (store.enabled()) {
        EXPECT_EQ(store.diskDir(), sweepDir + "/ckpt");
        EXPECT_TRUE(fs::exists(sweepDir + "/ckpt"));
    }
    store.setDiskDir(saved);

    // The published result records the worker's checkpoint traffic
    // (v3 fields) for sweep-wide BENCH accounting.
    auto result = ShardResultFile::load(
        sweepShardFile(sweepDir, 0, "result"));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->attempt, 1u);
    EXPECT_GT(result->ckptMemoryHits + result->ckptDiskHits +
                  result->ckptMisses,
              0u);
}

// ---------------------------------------------------------------------
// Fork dispatch: the client runs this binary as its local shard
// runners (`--serve DIR --once` workers on a private queue).

using ShardRunnerTest = SweepQueueTest;

SweepOutcome
runFork(const QueueOptions &opts, const std::vector<SimConfig> &configs,
        const std::string &worker = "/proc/self/exe")
{
    QueueOptions o = opts;
    o.timeoutSeconds = 0.0; // every path must end without one
    return QueueClient(o).run(configs, worker);
}

QueueOptions
forkOptions(const std::string &queueDir, unsigned shards = 3)
{
    QueueOptions o;
    o.queueDir = queueDir;
    o.sweepName = "sweep-under-test";
    o.shards = shards;
    o.pollSeconds = 0.05;
    o.verbose = false;
    return o;
}

TEST_F(ShardRunnerTest, MergedResultsBitIdenticalToSerial)
{
    SweepOutcome out = runFork(forkOptions(queueDir()), grid());
    EXPECT_TRUE(out.ok());
    EXPECT_EQ(out.completedShards, 3u);
    EXPECT_EQ(out.failedShards, 0u);
    EXPECT_EQ(out.retries, 0u);
    expectMergedMatchesSerial(out);
}

TEST_F(ShardRunnerTest, MoreShardsThanConfigsClampsPartition)
{
    const std::vector<SimConfig> two = {grid()[0], grid()[1]};
    SweepOutcome out = runFork(forkOptions(queueDir(), 8), two);
    EXPECT_TRUE(out.ok());
    // Partition clamps to one shard per config.
    EXPECT_EQ(out.shards.size(), 2u);
    EXPECT_TRUE(out.resultValid[0]);
    EXPECT_TRUE(out.resultValid[1]);
    expectIdentical(serialBaseline()[0], out.results[0]);
    expectIdentical(serialBaseline()[1], out.results[1]);
}

TEST_F(ShardRunnerTest, WorkerSigkillMidShardIsRetriedBitIdentically)
{
    // Shard 1's first claimant dies by SIGKILL after finishing its
    // first config (mid-shard, nothing published); another worker
    // reclaims the lease once it expires and runs it clean.
    ::setenv("TMCC_QUEUE_TEST_KILL", "1@1", 1);
    SweepOutcome out = runFork(forkOptions(queueDir()), grid());
    EXPECT_TRUE(out.ok());
    EXPECT_EQ(out.retries, 1u);
    EXPECT_EQ(out.failedShards, 0u);
    EXPECT_EQ(out.completedShards, 3u);
    ASSERT_EQ(out.shards.size(), 3u);
    EXPECT_EQ(out.shards[1].state, ShardState::Done);
    EXPECT_EQ(out.shards[1].attempts, 2u);
    expectMergedMatchesSerial(out);
}

TEST_F(ShardRunnerTest, SingleShardSurvivesWorkerSigkill)
{
    // With one shard there is one worker, and it dies: the client
    // must replace it, and the replacement reclaims at attempt 2.
    ::setenv("TMCC_QUEUE_TEST_KILL", "0@1", 1);
    SweepOutcome out = runFork(forkOptions(queueDir(), 1), grid());
    EXPECT_TRUE(out.ok());
    ASSERT_EQ(out.shards.size(), 1u);
    EXPECT_EQ(out.shards[0].attempts, 2u);
    expectMergedMatchesSerial(out);
}

TEST_F(ShardRunnerTest, RetryExhaustionDegradesGracefully)
{
    // Shard 1 dies on every attempt: the sweep must finish everything
    // else, mark shard 1 Failed at the attempt cap with its last owner,
    // and report not-ok.
    ::setenv("TMCC_QUEUE_TEST_KILL", "1@*", 1);
    SweepOutcome out = runFork(forkOptions(queueDir()), grid());
    EXPECT_FALSE(out.ok());
    EXPECT_EQ(out.failedShards, 1u);
    EXPECT_EQ(out.completedShards, 2u);
    ASSERT_EQ(out.shards.size(), 3u);
    EXPECT_EQ(out.shards[1].state, ShardState::Failed);
    EXPECT_EQ(out.shards[1].attempts, kMaxShardAttempts);
    EXPECT_NE(out.shards[1].lastError.find("last owner"),
              std::string::npos);

    // Every config outside the failed shard merged bit-identically;
    // the failed shard's configs are flagged invalid.
    const auto &serial = serialBaseline();
    for (std::size_t i = 0; i < out.results.size(); ++i) {
        const bool onFailedShard =
            std::find(out.shards[1].configIndices.begin(),
                      out.shards[1].configIndices.end(),
                      i) != out.shards[1].configIndices.end();
        EXPECT_EQ(out.resultValid[i], !onFailedShard);
        if (out.resultValid[i])
            expectIdentical(serial[i], out.results[i]);
    }

    // The durable manifest agrees with the in-memory outcome.
    const auto manifest = SweepManifest::load(
        queueDir() + "/sweep-under-test/MANIFEST.tmccsweep");
    ASSERT_TRUE(manifest.ok());
    EXPECT_EQ(manifest->shards[1].state, ShardState::Failed);
    EXPECT_EQ(manifest->shards[1].attempts, kMaxShardAttempts);
}

TEST_F(ShardRunnerTest, UnexecutableWorkerFailsWithinLaunchBudget)
{
    // Workers that never start (exit 127) never claim anything: the
    // client stops after kMaxShardAttempts launches per shard and
    // fails every shard instead of respawning forever.
    SweepOutcome out = runFork(forkOptions(queueDir()), grid(),
                               (dir_ / "no-such-worker").string());
    EXPECT_FALSE(out.ok());
    EXPECT_EQ(out.failedShards, 3u);
    EXPECT_EQ(out.completedShards, 0u);
    for (const SweepManifest::Shard &shard : out.shards) {
        EXPECT_EQ(shard.state, ShardState::Failed);
        EXPECT_NE(shard.lastError.find("after 9 launches"),
                  std::string::npos)
            << shard.lastError;
        EXPECT_NE(shard.lastError.find("exit status 127"),
                  std::string::npos)
            << shard.lastError;
    }
    for (std::size_t i = 0; i < out.resultValid.size(); ++i)
        EXPECT_FALSE(out.resultValid[i]);
}

TEST_F(ShardRunnerTest, InvalidConfigFailsAtAttemptCap)
{
    // A spec holding a config SimConfig::validate() rejects loads as
    // Corruption in every worker.  Each claim is spent, not released,
    // so the shard fails at the attempt cap instead of being retried
    // forever; the valid shard still merges.
    std::vector<SimConfig> configs = {grid()[0], grid()[1]};
    configs[1].scale = 1e-9;
    SweepOutcome out = runFork(forkOptions(queueDir(), 2), configs);
    EXPECT_FALSE(out.ok());
    EXPECT_EQ(out.completedShards, 1u);
    EXPECT_EQ(out.failedShards, 1u);
    ASSERT_EQ(out.shards.size(), 2u);
    EXPECT_EQ(out.shards[1].state, ShardState::Failed);
    EXPECT_EQ(out.shards[1].attempts, kMaxShardAttempts);
    EXPECT_TRUE(out.resultValid[0]);
    EXPECT_FALSE(out.resultValid[1]);
    expectIdentical(serialBaseline()[0], out.results[0]);
}

TEST_F(ShardRunnerTest, ResumeRerunsOnlyMissingShards)
{
    // First pass: shard 2 exhausts its attempts and is marked Failed.
    ::setenv("TMCC_QUEUE_TEST_KILL", "2@*", 1);
    SweepOutcome first = runFork(forkOptions(queueDir()), grid());
    EXPECT_FALSE(first.ok());
    EXPECT_EQ(first.completedShards, 2u);

    // Second pass on the same queue, hook removed: the two Done shards
    // resume from their result files (no re-run), and re-enqueueing
    // clears the exhausted claim so the failed shard gets a fresh
    // attempt budget.
    ::unsetenv("TMCC_QUEUE_TEST_KILL");
    SweepOutcome second = runFork(forkOptions(queueDir()), grid());
    EXPECT_TRUE(second.ok());
    EXPECT_EQ(second.resumedShards, 2u);
    EXPECT_EQ(second.completedShards, 3u);
    EXPECT_EQ(second.shards[2].attempts, 1u);
    expectMergedMatchesSerial(second);
}

TEST_F(ShardRunnerTest, ResumeDoesNotCountPastReclaims)
{
    // Shard 1 is reclaimed once on the first pass (attempt 2 is
    // stored with its result).  Resuming the finished sweep merges
    // that result from disk: a reclaim of an earlier run, not this one.
    ::setenv("TMCC_QUEUE_TEST_KILL", "1@1", 1);
    SweepOutcome first = runFork(forkOptions(queueDir()), grid());
    ASSERT_TRUE(first.ok());
    ASSERT_EQ(first.shards[1].attempts, 2u);
    EXPECT_EQ(first.retries, 1u);

    ::unsetenv("TMCC_QUEUE_TEST_KILL");
    const QueueClient::Totals before = QueueClient::totals();
    SweepOutcome resumed = runFork(forkOptions(queueDir()), grid());
    const QueueClient::Totals after = QueueClient::totals();
    EXPECT_TRUE(resumed.ok());
    EXPECT_EQ(resumed.resumedShards, 3u);
    EXPECT_EQ(resumed.retries, 0u);
    EXPECT_EQ(after.reclaimedShards - before.reclaimedShards, 0u);
    EXPECT_EQ(after.resumedShards - before.resumedShards, 3u);
    EXPECT_EQ(resumed.shards[1].attempts, 2u); // history is kept
    expectMergedMatchesSerial(resumed);
}

TEST_F(ShardRunnerTest, ResumeRejectsTamperedResultFile)
{
    // Complete a sweep, then damage one published result: resume must
    // re-run that shard rather than merge the damaged file.
    SweepOutcome first = runFork(forkOptions(queueDir()), grid());
    ASSERT_TRUE(first.ok());

    const std::string victim =
        queueDir() + "/sweep-under-test/shard-001.result";
    FILE *f = std::fopen(victim.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -3, SEEK_END);
    const int c = std::fgetc(f);
    std::fseek(f, -1, SEEK_CUR);
    std::fputc(c ^ 0xff, f);
    std::fclose(f);

    SweepOutcome second = runFork(forkOptions(queueDir()), grid());
    EXPECT_TRUE(second.ok());
    EXPECT_EQ(second.resumedShards, 2u); // shard 1 re-ran
    EXPECT_EQ(second.shards[1].attempts, 1u);
    expectMergedMatchesSerial(second);
}

// ---------------------------------------------------------------------
// Strict validation (fatal -> exit(1), death-testable).

using SweepQueueDeathTest = SweepQueueTest;

TEST_F(SweepQueueDeathTest, QueueOptionsValidation)
{
    QueueOptions o = clientOptions();
    o.queueDir.clear();
    EXPECT_DEATH(o.validate(), "queue directory");

    o = clientOptions();
    o.pollSeconds = 0.0;
    EXPECT_DEATH(o.validate(), "poll interval");

    o = clientOptions();
    o.timeoutSeconds = -1.0;
    EXPECT_DEATH(o.validate(), "timeout");

    o = clientOptions();
    o.workerJobs = 0;
    EXPECT_DEATH(o.validate(), "worker jobs");
}

TEST_F(SweepQueueDeathTest, DaemonOptionsValidation)
{
    DaemonOptions o = daemonOptions();
    o.queueDir.clear();
    EXPECT_DEATH(o.validate(), "queue directory");

    o = daemonOptions();
    o.leaseSeconds = 0.0;
    EXPECT_DEATH(o.validate(), "lease");

    o = daemonOptions();
    o.pollSeconds = -2.0;
    EXPECT_DEATH(o.validate(), "poll interval");
}

TEST_F(SweepQueueDeathTest, MalformedTestHookIsFatal)
{
    ::setenv("TMCC_QUEUE_TEST_KILL", "nonsense", 1);
    EXPECT_DEATH(sweepTestHookFires("TMCC_QUEUE_TEST_KILL", 0, 1),
                 "wants <shard>@<attempt");
}

TEST_F(SweepQueueDeathTest, SweepNameOwnedByOtherGridIsFatal)
{
    QueueClient client(clientOptions());
    client.enqueue(grid());
    std::vector<SimConfig> other = grid();
    other[0].seed ^= 0x5a5a;
    QueueClient second(clientOptions());
    EXPECT_DEATH(second.enqueue(other), "different sweep");
}

} // namespace
} // namespace tmcc

int
main(int argc, char **argv)
{
    // Worker re-entry: fork dispatch and the victim-daemon tests exec
    // this binary with `--serve DIR ...`, which must not fall into
    // gtest.
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--serve") == 0)
            return tmcc::sweepDaemonMain(argc, argv);
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
