/**
 * @file
 * On-disk artifacts of a sharded sweep (see docs/SWEEP.md):
 *
 *  - ShardSpec: the work order the enqueuing client leaves for the
 *    workers — the full SimConfigs of one shard plus their indices in
 *    the original grid and the sweep's grid key.
 *  - ShardResultFile: what a worker publishes back — the SimResults of
 *    its configs, bit-exact (doubles travel as raw bit patterns), so a
 *    merged sweep is indistinguishable from a serial SimRunner run.
 *  - SweepManifest: the client's durable record of the sweep — the
 *    grid key, the shard partition, and each shard's state/attempts —
 *    rewritten atomically after every transition so an interrupted
 *    sweep resumes by re-running only missing/failed shards.
 *
 * All three use the common versioned-file container (magic + format
 * version + CRC-32 + atomic temp-file+rename publication); corrupt or
 * truncated files are rejected with a Status and treated as "re-run",
 * never trusted and never fatal.
 */

#ifndef TMCC_SIM_SWEEP_MANIFEST_HH
#define TMCC_SIM_SWEEP_MANIFEST_HH

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/serial.hh"
#include "common/status.hh"
#include "sim/sim_config.hh"
#include "sim/sim_result.hh"

namespace tmcc
{

// Full-fidelity SimConfig/SimResult serialization: the schema
// (visitFields) in order, each field encoded by its type.  Doubles
// travel as their exact bit patterns, so a round trip reproduces every
// value bit-identically.  deserializeSimConfig also applies
// SimConfig::validate() and reports a violation as Corruption.
void serializeSimConfig(ByteWriter &w, const SimConfig &cfg);
Status deserializeSimConfig(ByteReader &r, SimConfig &cfg);
void serializeSimResult(ByteWriter &w, const SimResult &res);
Status deserializeSimResult(ByteReader &r, SimResult &res);

// The leaf codecs of the schema's composite field types.
void serializeField(ByteWriter &w, const Histogram &h);
/** Requires `h` to carry the encoded geometry already. */
Status deserializeField(ByteReader &r, Histogram &h);
void serializeField(ByteWriter &w, const StatDump &dump);
Status deserializeField(ByteReader &r, StatDump &dump);

template <class T> inline constexpr bool isVector = false;
template <class T> inline constexpr bool isVector<std::vector<T>> = true;

/**
 * Encode one schema field; its type picks the wire format: unsigned ->
 * u32, 64-bit counts -> u64, double -> f64, bool/enum -> u8, string ->
 * length-prefixed bytes, vector -> count + each element, and a record
 * (anything with a visitFields overload) -> its fields in schema order.
 */
template <class T>
void
serializeField(ByteWriter &w, const T &f)
{
    if constexpr (std::is_same_v<T, bool>) {
        w.u8(f ? 1 : 0);
    } else if constexpr (std::is_enum_v<T>) {
        w.u8(static_cast<std::uint8_t>(f));
    } else if constexpr (std::is_same_v<T, unsigned>) {
        w.u32(f);
    } else if constexpr (std::is_same_v<T, std::uint64_t> ||
                         std::is_same_v<T, std::size_t>) {
        w.u64(f);
    } else if constexpr (std::is_same_v<T, double>) {
        w.f64(f);
    } else if constexpr (std::is_same_v<T, std::string>) {
        w.str(f);
    } else if constexpr (isVector<T>) {
        w.u64(f.size());
        for (const auto &e : f)
            serializeField(w, e);
    } else {
        visitFields(f, [&w](const char *, const auto &x, auto...) {
            serializeField(w, x);
        });
    }
}

/** Decode one schema field written by serializeField; a record stops
 * at its first bad field. */
template <class T>
Status
deserializeField(ByteReader &r, T &f)
{
    if constexpr (std::is_same_v<T, bool>) {
        f = r.u8() != 0;
    } else if constexpr (std::is_enum_v<T>) {
        f = static_cast<T>(r.u8());
    } else if constexpr (std::is_same_v<T, unsigned>) {
        f = r.u32();
    } else if constexpr (std::is_same_v<T, std::uint64_t> ||
                         std::is_same_v<T, std::size_t>) {
        f = r.u64();
    } else if constexpr (std::is_same_v<T, double>) {
        f = r.f64();
    } else if constexpr (std::is_same_v<T, std::string>) {
        f = r.str();
    } else if constexpr (isVector<T>) {
        using Elem = typename T::value_type;
        // A default element encodes to the smallest one possible, which
        // bounds the count (and the reserve) by the remaining input.
        static const std::size_t minBytes = [] {
            ByteWriter w;
            serializeField(w, Elem{});
            return w.buffer().size();
        }();
        const std::uint64_t n = r.count(minBytes);
        f.clear();
        f.reserve(n);
        for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
            Elem e;
            TMCC_RETURN_IF_ERROR(deserializeField(r, e));
            f.push_back(std::move(e));
        }
    } else {
        Status s;
        visitFields(f, [&](const char *, auto &x, auto...) {
            if (s.ok())
                s = deserializeField(r, x);
        });
        return s;
    }
    return r.ok() ? Status::okStatus()
                  : Status::truncated("schema field payload too short");
}

/**
 * Deterministic fingerprint of a config grid (FNV-1a over the
 * serialized configs).  A sweep directory belongs to exactly one grid:
 * resume validates the stored key against the requested grid.
 */
std::string sweepGridKey(const std::vector<SimConfig> &grid);

/** One worker's work order (shard-NNN.spec). */
struct ShardSpec
{
    // v2: SimConfig gained the kernel mode + sampling geometry.
    // v3: SimConfig gained the multi-tenant knobs.
    // v4: SimConfig lost the kernel-mode byte (one access engine).
    // v5: dropped the attempt number and result path (the claim holds
    //     the attempt; results go to shard-NNN.result beside the spec).
    static constexpr std::uint32_t formatVersion = 5;

    std::string gridKey;
    std::uint32_t shardId = 0;
    std::uint32_t workerJobs = 1; //!< advisory SimRunner threads
    std::vector<std::uint64_t> configIndices; //!< into the full grid
    std::vector<SimConfig> configs;

    Status save(const std::string &path) const;
    static StatusOr<ShardSpec> load(const std::string &path);
};

/** One worker's published results (shard-NNN.result). */
struct ShardResultFile
{
    // v2: SimResult gained the interval-sampling summary.
    // v3: attempt + the worker's checkpoint-store traffic while
    //     running the shard, so merged BENCH reports carry sweep-wide
    //     checkpoint hit counts and lease reclaims are observable.
    // v4: SimResult gained the per-tenant isolation stats.
    static constexpr std::uint32_t formatVersion = 4;

    std::string gridKey;
    std::uint32_t shardId = 0;
    std::uint32_t attempt = 1; //!< the attempt/claim that published
    std::vector<std::uint64_t> configIndices;
    std::vector<SimResult> results; //!< parallel to configIndices

    // CheckpointStore delta while this shard ran in the worker.
    std::uint64_t ckptMemoryHits = 0;
    std::uint64_t ckptDiskHits = 0;
    std::uint64_t ckptMisses = 0;
    std::uint64_t ckptRejected = 0;

    Status save(const std::string &path) const;
    static StatusOr<ShardResultFile> load(const std::string &path);
};

/** A shard's lifecycle state as recorded in the manifest. */
enum class ShardState : std::uint8_t
{
    Pending = 0, //!< not yet (successfully) run
    Done = 1,    //!< result file published and CRC-verified
    Failed = 2,  //!< exhausted its attempts, or no worker was left
};

const char *shardStateName(ShardState s);

/** The client's durable sweep record (MANIFEST.tmccsweep). */
struct SweepManifest
{
    static constexpr std::uint32_t formatVersion = 1;

    struct Shard
    {
        std::uint32_t id = 0;
        ShardState state = ShardState::Pending;
        std::uint32_t attempts = 0; //!< attempts consumed so far
        std::string lastError;      //!< last failure description
        std::vector<std::uint64_t> configIndices;
    };

    std::string gridKey;
    std::uint64_t totalConfigs = 0;
    std::vector<Shard> shards;

    Status save(const std::string &path) const;
    static StatusOr<SweepManifest> load(const std::string &path);
};

} // namespace tmcc

#endif // TMCC_SIM_SWEEP_MANIFEST_HH
