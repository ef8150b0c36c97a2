/**
 * @file
 * jpeg: DCT-based image compression/decompression (AxBench).
 *
 * A synthetic grayscale image is encoded block-by-block (8×8 DCT and
 * quantization) and decoded back. Input pixels, quantized coefficients
 * and output pixels are all annotated approximate (Table 2: 98.4%
 * approximate footprint) — pixel data is the canonical example of
 * approximate similarity (Fig 1).
 *
 * Error metric: mean absolute output-pixel difference / 255 [8].
 */

#include <array>
#include <cmath>

#include "util/random.hh"
#include "workloads/error_metrics.hh"
#include "workloads/workload.hh"

namespace dopp
{

namespace
{

/** Standard JPEG luminance quantization table. */
constexpr int quantTable[64] = {
    16, 11, 10, 16, 24,  40,  51,  61,
    12, 12, 14, 19, 26,  58,  60,  55,
    14, 13, 16, 24, 40,  57,  69,  56,
    14, 17, 22, 29, 51,  87,  80,  62,
    18, 22, 37, 56, 68,  109, 103, 77,
    24, 35, 55, 64, 81,  104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99,
};

/** Precomputed DCT-II basis: c[u][x] = a(u) cos((2x+1)uπ/16), and
 * its transpose t[x][u] = c[u][x] for loops whose inner index is u. */
struct DctBasis
{
    double c[8][8];
    double t[8][8];

    DctBasis()
    {
        for (int u = 0; u < 8; ++u) {
            const double a =
                u == 0 ? std::sqrt(1.0 / 8.0) : std::sqrt(2.0 / 8.0);
            for (int x = 0; x < 8; ++x) {
                c[u][x] = a * std::cos((2 * x + 1) * u *
                                       3.14159265358979323846 / 16.0);
                t[x][u] = c[u][x];
            }
        }
    }
};

const DctBasis &
basis()
{
    static const DctBasis b;
    return b;
}

class Jpeg : public Workload
{
  public:
    using Workload::Workload;

    const char *name() const override { return "jpeg"; }

    void
    run(SimRuntime &rt) override
    {
        const u64 dim = scaled(512, 64) & ~static_cast<u64>(7);
        const u64 w = dim;
        const u64 h = dim;
        Rng rng(cfg.seed);

        SimArray<u8> image(rt, w * h, "image");
        SimArray<i16> coeff(rt, w * h, "coefficients");
        SimArray<u8> decoded(rt, w * h, "decoded");
        image.annotateApprox(0.0, 255.0, "jpeg.in");
        coeff.annotateApprox(-1024.0, 1023.0, "jpeg.coeff");
        decoded.annotateApprox(0.0, 255.0, "jpeg.out");

        // Synthetic photo-like input: smooth gradients, low-frequency
        // waves and a few soft blobs (plus mild sensor noise).
        struct Blob
        {
            double cx, cy, r, amp;
        };
        std::array<Blob, 12> blobs;
        for (auto &b : blobs) {
            b = {rng.uniform(0, static_cast<double>(w)),
                 rng.uniform(0, static_cast<double>(h)),
                 rng.uniform(20, 90), rng.uniform(-70, 70)};
        }
        for (u64 y = 0; y < h; ++y) {
            for (u64 x = 0; x < w; ++x) {
                double v = 110.0 +
                    60.0 * static_cast<double>(x) /
                        static_cast<double>(w) +
                    25.0 * std::sin(static_cast<double>(y) / 37.0);
                for (const auto &b : blobs) {
                    const double dx = static_cast<double>(x) - b.cx;
                    const double dy = static_cast<double>(y) - b.cy;
                    v += b.amp *
                        std::exp(-(dx * dx + dy * dy) / (b.r * b.r));
                }
                // Fine texture and sensor noise (real photographs are
                // not band-limited gradients).
                v += 20.0 * std::sin(static_cast<double>(x) / 2.1) *
                    std::cos(static_cast<double>(y) / 3.3);
                v += rng.uniform(-12.0, 12.0);
                image.poke(y * w + x,
                           static_cast<u8>(std::clamp(v, 0.0, 255.0)));
            }
        }

        const u64 blocksX = w / 8;
        const u64 blocksY = h / 8;

        // Both DCTs accumulate the eight sums of one output row side by
        // side (independent, so the host overlaps them); each sum still
        // adds its 64 terms in the original order, so every result is
        // bit-identical to one serial sum per coefficient (DESIGN.md
        // §19).
        const DctBasis &dct = basis();

        // Pass 1: forward DCT + quantization.
        rt.parallelFor(0, blocksX * blocksY, 8, [&](u64 bi) {
            const u64 bx = (bi % blocksX) * 8;
            const u64 by = (bi / blocksX) * 8;
            double px[8][8];
            for (int y = 0; y < 8; ++y) {
                u8 row[8];
                image.getRun((by + y) * w + bx, 8, row);
                for (int x = 0; x < 8; ++x)
                    px[y][x] = static_cast<double>(row[x]) - 128.0;
            }
            for (int v = 0; v < 8; ++v) {
                double s[8] = {};
                for (int y = 0; y < 8; ++y)
                    for (int x = 0; x < 8; ++x)
                        for (int u = 0; u < 8; ++u)
                            s[u] += px[y][x] * dct.t[x][u] * dct.c[v][y];
                i16 row[8];
                for (int u = 0; u < 8; ++u) {
                    const int q = quantTable[v * 8 + u];
                    const double c = std::round(s[u] / q);
                    row[u] = static_cast<i16>(
                        std::clamp(c, -1024.0, 1023.0));
                }
                coeff.setRun((by + v) * w + bx, 8, row);
            }
            rt.addWork(700); // 2-D DCT arithmetic
        });

        // Pass 2: dequantization + inverse DCT.
        rt.parallelFor(0, blocksX * blocksY, 8, [&](u64 bi) {
            const u64 bx = (bi % blocksX) * 8;
            const u64 by = (bi / blocksX) * 8;
            double cf[8][8];
            for (int v = 0; v < 8; ++v) {
                i16 row[8];
                coeff.getRun((by + v) * w + bx, 8, row);
                for (int u = 0; u < 8; ++u)
                    cf[v][u] = static_cast<double>(row[u]) *
                        quantTable[v * 8 + u];
            }
            for (int y = 0; y < 8; ++y) {
                double s[8] = {};
                for (int v = 0; v < 8; ++v)
                    for (int u = 0; u < 8; ++u)
                        for (int x = 0; x < 8; ++x)
                            s[x] += cf[v][u] * dct.c[u][x] * dct.c[v][y];
                u8 row[8];
                for (int x = 0; x < 8; ++x) {
                    row[x] = static_cast<u8>(
                        std::clamp(s[x] + 128.0, 0.0, 255.0));
                }
                decoded.setRun((by + y) * w + bx, 8, row);
            }
            rt.addWork(700);
        });

        // Output: a deterministic sample of decoded pixels.
        out.clear();
        for (u64 i = 0; i < w * h; i += 16)
            out.push_back(decoded.get(i));
    }

    double
    outputError(const std::vector<double> &approx,
                const std::vector<double> &precise) const override
    {
        return meanAbsErrorNormalized(approx, precise, 255.0);
    }
};

} // namespace

std::unique_ptr<Workload>
makeJpeg(const WorkloadConfig &config)
{
    return std::make_unique<Jpeg>(config);
}

} // namespace dopp
