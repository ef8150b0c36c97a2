/**
 * @file
 * Similarity explorer: run the paper's Sec 2 / Sec 5.1 characterization
 * on *your own data*. Reads any file, interprets it as 64 B cache
 * blocks of a chosen element type and declared value range, and
 * reports the storage savings every technique in the repository would
 * extract: element-wise threshold similarity (Fig 2), Doppelgänger map
 * spaces (Fig 7), exact dedup, B∆I, FPC, and Dopp+B∆I (Fig 8).
 *
 * Usage: similarity_explorer <file> [type] [min] [max]
 *   type: u8 | i16 | i32 | f32 | f64   (default u8)
 *   min/max: declared element range    (default 0 255)
 *
 * With no file argument, a built-in synthetic image demonstrates the
 * output.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/similarity.hh"
#include "harness/report.hh"
#include "util/env.hh"
#include "util/logging.hh"
#include "util/random.hh"

using namespace dopp;

namespace
{

ElemType
parseType(const std::string &s)
{
    if (s == "u8")
        return ElemType::U8;
    if (s == "i16")
        return ElemType::I16;
    if (s == "i32")
        return ElemType::I32;
    if (s == "f32")
        return ElemType::F32;
    if (s == "f64")
        return ElemType::F64;
    fatal("type='%s' is not one of u8, i16, i32, f32, f64", s.c_str());
    return ElemType::U8;
}

std::vector<u8>
syntheticImage()
{
    // A smooth gradient with soft blobs, like the Fig 1 photograph.
    Rng rng(7);
    const unsigned w = 256;
    const unsigned h = 256;
    std::vector<u8> img(static_cast<size_t>(w) * h);
    for (unsigned y = 0; y < h; ++y) {
        for (unsigned x = 0; x < w; ++x) {
            double v = 90.0 + 0.3 * x + 0.1 * y +
                rng.uniform(-4.0, 4.0);
            img[y * w + x] = static_cast<u8>(
                std::clamp(v, 0.0, 255.0));
        }
    }
    return img;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<u8> bytes;
    ElemType type = ElemType::U8;
    double lo = 0.0;
    double hi = 255.0;

    if (argc > 1) {
        std::ifstream in(argv[1], std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "cannot open %s\n", argv[1]);
            return 1;
        }
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
        if (argc > 2)
            type = parseType(argv[2]);
        if (argc > 4) {
            lo = parseDouble("min", argv[3]);
            hi = parseDouble("max", argv[4]);
            if (!(lo < hi))
                fatal("min=%g must be below max=%g", lo, hi);
        }
        std::printf("analysing %s: %zu bytes as %s in [%g, %g]\n",
                    argv[1], bytes.size(), elemTypeName(type), lo, hi);
    } else {
        bytes = syntheticImage();
        std::printf("no file given; analysing a synthetic 256x256 "
                    "image (u8 pixels)\n");
    }

    const size_t blocks = bytes.size() / blockBytes;
    if (blocks < 2) {
        std::fprintf(stderr, "need at least two blocks of data\n");
        return 1;
    }

    Snapshot snap;
    snap.reserve(blocks);
    for (size_t i = 0; i < blocks; ++i) {
        SnapshotBlock b;
        b.addr = i * blockBytes;
        std::memcpy(b.data.data(), bytes.data() + i * blockBytes,
                    blockBytes);
        b.approx = true;
        b.type = type;
        b.minValue = lo;
        b.maxValue = hi;
        snap.push_back(b);
    }
    std::printf("%zu blocks\n", blocks);

    TextTable thresh;
    thresh.header({"T (of range)", "storage savings"});
    for (double t : {0.0, 0.0001, 0.001, 0.01, 0.1})
        thresh.row({pct(t, 2), pct(thresholdSavings(snap, t))});
    thresh.print("element-wise similarity (paper Fig 2)");

    TextTable maps;
    maps.header({"map space", "storage savings"});
    for (unsigned m : {10u, 12u, 13u, 14u, 16u})
        maps.row({strfmt("%u-bit", m), pct(mapSavings(snap, m))});
    maps.print("Doppelganger map clustering (paper Fig 7)");

    TextTable others;
    others.header({"technique", "storage savings"});
    others.row({"exact dedup", pct(dedupSavings(snap))});
    others.row({"BdI compression", pct(bdiSavings(snap))});
    others.row({"FPC compression", pct(fpcSavings(snap))});
    others.row({"14-bit Dopp + BdI", pct(doppBdiSavings(snap, 14))});
    others.print("lossless baselines (paper Fig 8)");
    return 0;
}
