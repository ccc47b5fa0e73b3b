/**
 * @file
 * Compression explorer: runs every compressor in the library over a
 * chosen content family and prints what each stage of the
 * memory-specialized Deflate contributes — a hands-on tour of §V-B.
 *
 * Usage: compress_explorer [family] [structure] [repetition]
 *   family: text | pointer-heap | int-array | float-array | graph-csr
 *           | key-value | random   (default graph-csr)
 *   structure:  regularity in [0, 1] (default 0.5)
 *   repetition: page-scale repetition factor > 0; 1 or less repeats
 *               nothing (default 3)
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "common/cli.hh"
#include "common/rng.hh"
#include "compress/block_compressor.hh"
#include "compress/deflate_timing.hh"
#include "compress/rfc_deflate.hh"
#include "workloads/content.hh"

using namespace tmcc;

namespace
{

ContentFamily
familyByName(const std::string &name)
{
    const ContentFamily families[] = {
        ContentFamily::Zero,       ContentFamily::Text,
        ContentFamily::PointerHeap, ContentFamily::IntArray,
        ContentFamily::FloatArray, ContentFamily::GraphCsr,
        ContentFamily::KeyValue,   ContentFamily::Random,
    };
    for (ContentFamily f : families)
        if (name == contentFamilyName(f))
            return f;
    std::fprintf(stderr, "unknown family '%s', using graph-csr\n",
                 name.c_str());
    return ContentFamily::GraphCsr;
}

} // namespace

int
main(int argc, char **argv)
{
    ContentSpec spec;
    spec.family =
        familyByName(argc > 1 ? argv[1] : "graph-csr");
    spec.structure = argc > 2 ? parseRate(argv[2], "structure") : 0.5;
    spec.repetition =
        argc > 3 ? parsePositiveReal(argv[3], "repetition") : 3.0;

    std::printf("content: %s (structure %.2f, repetition %.1f)\n\n",
                contentFamilyName(spec.family), spec.structure,
                spec.repetition);

    Rng rng(1);
    constexpr int pages = 16;
    BlockCompressor block;
    MemDeflate ours;
    MemDeflateConfig no_skip_cfg;
    no_skip_cfg.dynamicHuffmanSkip = false;
    MemDeflate no_skip(no_skip_cfg);
    RfcDeflate gzip_like;
    MemDeflateTiming timing;

    std::size_t raw = 0, blk = 0, def = 0, noskip = 0, rfc = 0;
    std::size_t lz_only_bits = 0, tokens = 0, literals = 0;
    double dec_ns = 0, comp_ns = 0;

    for (int i = 0; i < pages; ++i) {
        const auto page = generateContent(spec, rng);
        raw += page.size();
        blk += block.compressPage(page.data());
        const CompressedPage cp = ours.compress(page.data(),
                                                page.size());
        def += cp.sizeBytes();
        noskip +=
            no_skip.compress(page.data(), page.size()).sizeBytes();
        rfc += gzip_like.compress(page.data(), page.size()).sizeBytes();

        const auto lz_tokens =
            ours.lz().compress(page.data(), page.size());
        lz_only_bits += ours.lz().tokenBits(lz_tokens);
        tokens += cp.lzTokens;
        literals += cp.lzLiterals;

        const DeflateTiming t = timing.timing(cp);
        dec_ns += ticksToNs(t.decompressLatency);
        comp_ns += ticksToNs(t.compressLatency);

        // Verify bit-exact round trips while exploring.
        const auto round_trip = ours.decompress(cp);
        if (!round_trip.ok() || round_trip.value() != page) {
            std::fprintf(stderr, "round-trip mismatch!\n");
            return 1;
        }
    }

    auto ratio = [&](std::size_t c) {
        return static_cast<double>(raw) / static_cast<double>(c);
    };
    std::printf("%-38s %8s %8s\n", "codec", "ratio", "bytes/pg");
    std::printf("%-38s %8.3f %8zu\n", "block-level (best of 4, 64B)",
                ratio(blk), blk / pages);
    std::printf("%-38s %8.3f %8zu\n", "LZ stage alone (1KB CAM)",
                ratio(lz_only_bits / 8), lz_only_bits / 8 / pages);
    std::printf("%-38s %8.3f %8zu\n",
                "memory Deflate (no Huffman skip)", ratio(noskip),
                noskip / pages);
    std::printf("%-38s %8.3f %8zu\n", "memory Deflate (dynamic skip)",
                ratio(def), def / pages);
    std::printf("%-38s %8.3f %8zu\n", "RFC 1951 reference (gzip-like)",
                ratio(rfc), rfc / pages);

    std::printf("\nLZ token stream: %.1f tokens/page, %.0f%% literals\n",
                static_cast<double>(tokens) / pages,
                100.0 * static_cast<double>(literals) /
                    static_cast<double>(tokens ? tokens : 1));
    std::printf("modelled ASIC timing: decompress %.0fns, compress "
                "%.0fns per 4KB page (IBM: %.0f / %.0f)\n",
                dec_ns / pages, comp_ns / pages,
                ticksToNs(IbmDeflateTiming().decompressLatency(pageSize)),
                ticksToNs(IbmDeflateTiming().compressLatency(pageSize)));
    return 0;
}
