#include "sim/sweep_manifest.hh"

#include <utility>

#include "common/log.hh"
#include "common/versioned_file.hh"

namespace tmcc
{

namespace
{

constexpr char specMagic[8] = {'T', 'M', 'C', 'C', 'S', 'P', 'E', 'C'};
constexpr char resultMagic[8] = {'T', 'M', 'C', 'C', 'S', 'H', 'R', 'D'};
constexpr char manifestMagic[8] = {'T', 'M', 'C', 'C', 'S', 'W', 'P', 'M'};

} // namespace

void
serializeField(ByteWriter &w, const StatDump &dump)
{
    w.u64(dump.all().size());
    for (const auto &[name, value] : dump.all()) {
        w.str(name);
        w.f64(value);
    }
}

Status
deserializeField(ByteReader &r, StatDump &dump)
{
    dump = StatDump{};
    const std::uint64_t n = r.count(8 + 8); // length prefix + value
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
        const std::string name = r.str();
        dump.set(name, r.f64());
    }
    if (!r.ok())
        return Status::truncated("StatDump payload too short");
    return Status::okStatus();
}

void
serializeField(ByteWriter &w, const Histogram &h)
{
    w.f64(h.lo());
    w.f64(h.hi());
    w.u32(static_cast<std::uint32_t>(h.buckets().size()));
    for (std::uint64_t c : h.buckets())
        w.u64(c);
    w.u64(h.underflow());
    w.u64(h.overflow());
    // mean() divides; the exact running sum round-trips bit-exactly.
    w.f64(h.sampleSum());
    w.u64(h.count());
}

Status
deserializeField(ByteReader &r, Histogram &h)
{
    const double lo = r.f64();
    const double hi = r.f64();
    const std::uint32_t nbuckets = r.u32();
    if (!r.ok() || nbuckets == 0 || !(hi > lo) ||
        nbuckets != h.buckets().size() || lo != h.lo() || hi != h.hi())
        return Status::corruption("histogram geometry mismatch");
    std::vector<std::uint64_t> counts;
    counts.reserve(nbuckets);
    for (std::uint32_t i = 0; i < nbuckets && r.ok(); ++i)
        counts.push_back(r.u64());
    const std::uint64_t underflow = r.u64();
    const std::uint64_t overflow = r.u64();
    const double sum = r.f64();
    const std::uint64_t count = r.u64();
    if (!r.ok())
        return Status::truncated("histogram payload too short");
    h.restore(std::move(counts), underflow, overflow, sum, count);
    return Status::okStatus();
}

void
serializeSimConfig(ByteWriter &w, const SimConfig &cfg)
{
    serializeField(w, cfg);
}

Status
deserializeSimConfig(ByteReader &r, SimConfig &cfg)
{
    TMCC_RETURN_IF_ERROR(deserializeField(r, cfg));
    const Status valid = cfg.validate();
    if (!valid.ok())
        return Status::corruption("SimConfig " + valid.message());
    return Status::okStatus();
}

void
serializeSimResult(ByteWriter &w, const SimResult &res)
{
    serializeField(w, res);
}

Status
deserializeSimResult(ByteReader &r, SimResult &res)
{
    res = SimResult{};
    return deserializeField(r, res);
}

std::string
sweepGridKey(const std::vector<SimConfig> &grid)
{
    ByteWriter w;
    w.u64(grid.size());
    for (const SimConfig &cfg : grid)
        serializeSimConfig(w, cfg);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a(w.buffer().data(), w.buffer().size())));
    return buf;
}

Status
ShardSpec::save(const std::string &path) const
{
    ByteWriter w;
    w.str(gridKey);
    w.u32(shardId);
    w.u32(workerJobs);
    serializeField(w, configIndices);
    w.u64(configs.size());
    for (const SimConfig &cfg : configs)
        serializeSimConfig(w, cfg);
    return writeVersionedFile(path, specMagic, formatVersion,
                              w.buffer());
}

StatusOr<ShardSpec>
ShardSpec::load(const std::string &path)
{
    TMCC_ASSIGN_OR_RETURN(
        const std::vector<std::uint8_t> payload,
        readVersionedFile(path, specMagic, formatVersion));
    ByteReader r(payload);
    ShardSpec spec;
    spec.gridKey = r.str();
    spec.shardId = r.u32();
    spec.workerJobs = r.u32();
    TMCC_RETURN_IF_ERROR(deserializeField(r, spec.configIndices));
    const std::uint64_t n = r.count(1);
    spec.configs.reserve(n);
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
        SimConfig cfg;
        TMCC_RETURN_IF_ERROR(deserializeSimConfig(r, cfg));
        spec.configs.push_back(std::move(cfg));
    }
    TMCC_RETURN_IF_ERROR(r.finish("ShardSpec"));
    if (spec.configs.size() != spec.configIndices.size())
        return Status::corruption(
            "ShardSpec config/index count mismatch");
    return spec;
}

Status
ShardResultFile::save(const std::string &path) const
{
    ByteWriter w;
    w.str(gridKey);
    w.u32(shardId);
    w.u32(attempt);
    w.u64(ckptMemoryHits);
    w.u64(ckptDiskHits);
    w.u64(ckptMisses);
    w.u64(ckptRejected);
    serializeField(w, configIndices);
    w.u64(results.size());
    for (const SimResult &res : results)
        serializeSimResult(w, res);
    return writeVersionedFile(path, resultMagic, formatVersion,
                              w.buffer());
}

StatusOr<ShardResultFile>
ShardResultFile::load(const std::string &path)
{
    TMCC_ASSIGN_OR_RETURN(
        const std::vector<std::uint8_t> payload,
        readVersionedFile(path, resultMagic, formatVersion));
    ByteReader r(payload);
    ShardResultFile file;
    file.gridKey = r.str();
    file.shardId = r.u32();
    file.attempt = r.u32();
    file.ckptMemoryHits = r.u64();
    file.ckptDiskHits = r.u64();
    file.ckptMisses = r.u64();
    file.ckptRejected = r.u64();
    if (file.attempt == 0)
        return Status::corruption("ShardResultFile attempt must be "
                                  "positive");
    TMCC_RETURN_IF_ERROR(deserializeField(r, file.configIndices));
    const std::uint64_t n = r.count(1);
    file.results.reserve(n);
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
        SimResult res;
        TMCC_RETURN_IF_ERROR(deserializeSimResult(r, res));
        file.results.push_back(std::move(res));
    }
    TMCC_RETURN_IF_ERROR(r.finish("ShardResultFile"));
    if (file.results.size() != file.configIndices.size())
        return Status::corruption(
            "ShardResultFile result/index count mismatch");
    return file;
}

const char *
shardStateName(ShardState s)
{
    switch (s) {
      case ShardState::Pending: return "pending";
      case ShardState::Done: return "done";
      case ShardState::Failed: return "failed";
    }
    return "?";
}

Status
SweepManifest::save(const std::string &path) const
{
    ByteWriter w;
    w.str(gridKey);
    w.u64(totalConfigs);
    w.u64(shards.size());
    for (const Shard &s : shards) {
        w.u32(s.id);
        w.u8(static_cast<std::uint8_t>(s.state));
        w.u32(s.attempts);
        w.str(s.lastError);
        serializeField(w, s.configIndices);
    }
    return writeVersionedFile(path, manifestMagic, formatVersion,
                              w.buffer());
}

StatusOr<SweepManifest>
SweepManifest::load(const std::string &path)
{
    TMCC_ASSIGN_OR_RETURN(
        const std::vector<std::uint8_t> payload,
        readVersionedFile(path, manifestMagic, formatVersion));
    ByteReader r(payload);
    SweepManifest m;
    m.gridKey = r.str();
    m.totalConfigs = r.u64();
    const std::uint64_t n = r.count(4 + 1 + 4 + 8 + 8);
    m.shards.reserve(n);
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
        Shard s;
        s.id = r.u32();
        const std::uint8_t state = r.u8();
        if (state > static_cast<std::uint8_t>(ShardState::Failed))
            return Status::corruption("manifest shard state out of range");
        s.state = static_cast<ShardState>(state);
        s.attempts = r.u32();
        s.lastError = r.str();
        TMCC_RETURN_IF_ERROR(deserializeField(r, s.configIndices));
        m.shards.push_back(std::move(s));
    }
    TMCC_RETURN_IF_ERROR(r.finish("SweepManifest"));
    return m;
}

} // namespace tmcc
