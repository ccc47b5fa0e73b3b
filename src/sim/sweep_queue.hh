/**
 * @file
 * Lease-based sweep work queue (docs/SWEEP.md): the on-disk protocol
 * that lets N workers on any machines sharing a filesystem serve one
 * sweep, with crash recovery and no coordinator.  It is the only
 * multi-process sweep executor: `--dispatch=queue` enqueues for
 * long-running remote daemons, `--dispatch=fork` enqueues into a
 * private queue directory and starts local drain-once daemons.
 *
 * A *queue directory* holds one subdirectory per enqueued sweep, each
 * a sweep directory (manifest + shard specs + CRC'd shard result
 * files) plus three more file kinds:
 *
 *  - REQUEST.tmccq (QueueRequest): the enqueue marker workers scan
 *    for, written last so a request is only visible once its specs are
 *    complete.
 *  - shard-NNN.claim (ShardClaim): the lease.  Workers claim a shard
 *    by atomically creating its claim file (versioned-file
 *    create-if-absent via link(2) — exactly one creator wins, even
 *    over NFS), renew it by rewriting it (heartbeat; the file's mtime
 *    is the lease clock), and release it after publishing the result.
 *    A claim whose mtime is older than its recorded lease is *stale*
 *    (the worker crashed, was SIGKILLed, or got partitioned): any
 *    worker may reclaim it — delete, then race to re-create — unless
 *    it already carries the last of kMaxShardAttempts attempts, in
 *    which case the shard is *exhausted* and fails.
 *  - shard-NNN.progress (ShardProgress): per-shard progress the worker
 *    streams while it runs (configs done, accesses simulated, the
 *    latest epoch snapshot) for the enqueuing client to display.
 *
 * Safety: results are deterministic, so the worst consequence of the
 * unavoidable distributed races (a slow owner publishing after its
 * lease was reclaimed) is duplicate work — both workers publish
 * bit-identical deterministic results via atomic rename, and merged
 * metrics stay byte-identical to a serial run.  Clocks: staleness
 * compares the claim's mtime (stamped by the filesystem server) with
 * the observer's wall clock, so leases must comfortably exceed
 * cross-host clock skew; the default (15s) does.
 *
 * QueueClient is the enqueuing side (`tmccsim --sweep ...
 * --dispatch=queue|fork`): partition the grid, write the artifacts,
 * poll for results, merge.  SweepDaemon (sweep_daemon.hh,
 * `tmccsim --serve`) is the serving side.
 */

#ifndef TMCC_SIM_SWEEP_QUEUE_HH
#define TMCC_SIM_SWEEP_QUEUE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hh"
#include "sim/sim_config.hh"
#include "sim/sim_result.hh"
#include "sim/sweep_manifest.hh"

namespace tmcc
{

/** `shard-NNN.<ext>` within a sweep directory. */
std::string sweepShardFile(const std::string &dir, std::uint32_t id,
                           const char *ext);

/** REQUEST.tmccq within a sweep directory. */
std::string sweepRequestPath(const std::string &sweepDir);

/**
 * Whether a "<shard>@<attempt|*>" failure-injection hook env var (see
 * sweep_daemon.hh) fires for this shard attempt.
 */
bool sweepTestHookFires(const char *envName, std::uint32_t shard,
                        std::uint32_t attempt);

/** Default shard/worker count when a sharded dispatch mode is chosen
 * without an explicit --shards/TMCC_SHARDS: hardware_concurrency
 * clamped to [1, 64] (0 when unknown maps to 1). */
unsigned defaultShardCount();

/** Claims per shard (first run + reclaims) before it is Failed. */
constexpr std::uint32_t kMaxShardAttempts = 3;

/** The enqueue marker (REQUEST.tmccq) workers scan for. */
struct QueueRequest
{
    // v2: dropped the config count and advisory worker jobs (the shard
    //     specs carry both).
    static constexpr std::uint32_t formatVersion = 2;

    std::string gridKey;
    std::uint32_t shardCount = 0;

    Status save(const std::string &path) const;
    static StatusOr<QueueRequest> load(const std::string &path);
};

/** The lease record (shard-NNN.claim). */
struct ShardClaim
{
    static constexpr std::uint32_t formatVersion = 1;

    std::string gridKey;
    std::uint32_t shardId = 0;
    std::uint32_t attempt = 1; //!< 1 + completed prior claims
    std::string owner;         //!< worker id, e.g. "host:pid"
    std::uint64_t heartbeatSeq = 0; //!< bumped on every renewal
    double leaseSeconds = 15.0;     //!< staleness threshold

    Status saveExclusive(const std::string &path) const;
    Status saveRenew(const std::string &path) const;
    static StatusOr<ShardClaim> load(const std::string &path);
};

/** Worker progress (shard-NNN.progress), streamed for the client. */
struct ShardProgress
{
    static constexpr std::uint32_t formatVersion = 1;

    std::string gridKey;
    std::uint32_t shardId = 0;
    std::uint32_t attempt = 1;
    std::string owner;
    std::uint64_t configsDone = 0;
    std::uint64_t configsTotal = 0;
    std::uint64_t accessesDone = 0; //!< simulated accesses so far
    std::uint64_t epochsSeen = 0;   //!< epoch snapshots so far
    // Latest epoch snapshot of the most recently finished config.
    double lastMl2AccessRate = 0.0;
    double lastCteHitRate = 0.0;
    double lastDramUsedBytes = 0.0;

    Status save(const std::string &path) const;
    static StatusOr<ShardProgress> load(const std::string &path);
};

/** Seconds since the claim file's last write (its renewal heartbeat),
 * measured against the local wall clock; < 0 when it cannot be
 * stat'ed (e.g. already released). */
double shardClaimAgeSeconds(const std::string &path);

/** Outcome of one claim attempt. */
struct ClaimAttempt
{
    bool claimed = false;
    bool reclaimed = false; //!< a stale/corrupt claim was displaced
    ShardClaim claim;       //!< valid iff claimed
    std::string reason;     //!< why not, when !claimed
};

/**
 * Try to acquire the lease on shard `shardId` of the sweep in `dir`:
 *  - no claim file        -> exclusive-create (attempt 1)
 *  - live claim           -> not claimed ("held by <owner>")
 *  - stale claim          -> delete it, race to re-create
 *                            (attempt = stale attempt + 1)
 *  - stale claim at the   -> not claimed ("exhausted"): the shard has
 *    attempt cap             used up kMaxShardAttempts
 *  - corrupt claim        -> never trusted: treated as stale at
 *                            attempt 0
 * Losing the create race (another worker linked first) is a normal
 * "not claimed" outcome, not an error.
 */
ClaimAttempt tryClaimShard(const std::string &dir,
                           const std::string &gridKey,
                           std::uint32_t shardId,
                           const std::string &owner,
                           double leaseSeconds);

/** Whether the shard's claim is stale at kMaxShardAttempts, i.e. its
 * last allowed owner died holding it; `last` receives that claim. */
bool shardExhausted(const std::string &dir, std::uint32_t shardId,
                    ShardClaim *last = nullptr);

/**
 * Renew the lease: verify the on-disk claim is still ours (it may have
 * been reclaimed if we stalled past the lease), bump the heartbeat
 * sequence and rewrite the file (refreshing its mtime).  An error
 * means the lease was lost — the worker must abandon the shard.
 */
Status renewShardClaim(const std::string &dir, ShardClaim &claim);

/** Drop the lease after publishing (best effort; only if still ours). */
void releaseShardClaim(const std::string &dir, const ShardClaim &claim);

/** Merged outcome of a sweep. */
struct SweepOutcome
{
    /** Results in original grid order; entries of unfinished shards
     * are default-constructed (check `resultValid`). */
    std::vector<SimResult> results;
    std::vector<bool> resultValid;

    /** Final manifest state of every shard. */
    std::vector<SweepManifest::Shard> shards;

    unsigned completedShards = 0;
    unsigned failedShards = 0;  //!< exhausted, workerless or timed out
    unsigned retries = 0;       //!< merged shards that needed a reclaim
    unsigned resumedShards = 0; //!< satisfied from a previous sweep

    /** Every shard completed and every result merged. */
    bool ok() const { return failedShards == 0; }
};

/** Policy knobs for the enqueuing client. */
struct QueueOptions
{
    /** Queue directory shared with the workers (required). */
    std::string queueDir;

    /** Sweep subdirectory name; empty = "sweep-<gridkey8>". */
    std::string sweepName;

    /** Shard count for a fresh enqueue; 0 = defaultShardCount().  A
     * re-enqueued sweep keeps its recorded partition. */
    unsigned shards = 0;

    /** Advisory SimRunner threads per worker (workers may override). */
    unsigned workerJobs = 1;

    /** Result-poll interval. */
    double pollSeconds = 0.5;

    /** Give up after this long without completion; 0 = wait forever.
     * Unfinished shards surface as failed in the outcome. */
    double timeoutSeconds = 0.0;

    bool verbose = true;

    /** fatal() on out-of-contract values (strict CLI validation). */
    void validate() const;
};

/**
 * The enqueuing side of the queue: write the sweep artifacts under the
 * queue directory, wait for workers to publish every shard, and merge
 * after validating grid key + config indices + CRC, so the merged
 * outcome is indistinguishable from a serial run.
 */
class QueueClient
{
  public:
    explicit QueueClient(QueueOptions opts); //!< validates opts

    /**
     * Write (or re-validate, when resuming) the sweep directory for
     * `grid` and return its path.  Fatal on caller errors: empty grid,
     * unusable queue dir, a sweep dir recorded for a different grid.
     */
    std::string enqueue(const std::vector<SimConfig> &grid);

    /**
     * enqueue() + poll until every shard is merged or has failed:
     * exhausted its kMaxShardAttempts claims (Failed, with the attempt
     * count and last owner in the manifest), or outlived the timeout.
     *
     * With `localWorker` set (fork dispatch) the client also runs the
     * workers: it execs `localWorker --serve <queueDir> --once` with a
     * short lease, keeps one alive per unfinished shard, replaces any
     * that exit early, and launches at most kMaxShardAttempts per shard
     * in total; once that budget is spent with no worker left, the
     * unfinished shards are Failed.
     */
    SweepOutcome run(const std::vector<SimConfig> &grid,
                     const std::string &localWorker = {});

    /** Process-wide queue-dispatch totals (BenchReport fields). */
    struct Totals
    {
        std::uint64_t sweeps = 0;          //!< enqueued
        std::uint64_t mergedShards = 0;    //!< results merged
        std::uint64_t reclaimedShards = 0; //!< first merged at attempt > 1
        std::uint64_t resumedShards = 0;   //!< satisfied on enqueue
    };
    static Totals totals();
    static void resetTotals(); //!< tests

  private:
    QueueOptions opts_;
};

} // namespace tmcc

#endif // TMCC_SIM_SWEEP_QUEUE_HH
