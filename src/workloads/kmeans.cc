/**
 * @file
 * kmeans: k-means clustering of RGB points (the AxBench image
 * segmentation kernel).
 *
 * Pixels (RGB triplets, u8) are clustered into k centroids by Lloyd
 * iterations. The pixel data and the centroid table are annotated
 * approximate (Table 2: 59.6% approximate footprint); labels and
 * bookkeeping are precise.
 *
 * Error metric: mean absolute final-centroid error / 255, plus the
 * relative clustering-cost error folded into the output vector [8].
 */

#include <cmath>

#include "util/random.hh"
#include "workloads/error_metrics.hh"
#include "workloads/workload.hh"

namespace dopp
{

namespace
{

class Kmeans : public Workload
{
  public:
    using Workload::Workload;

    const char *name() const override { return "kmeans"; }

    void
    run(SimRuntime &rt) override
    {
        const u64 n = scaled(150000, 512);
        constexpr unsigned k = 12;
        constexpr unsigned iters = 3;
        Rng rng(cfg.seed);

        SimArray<u8> pixels(rt, n * 3, "pixels");
        SimArray<float> centroids(rt, k * 3, "centroids");
        pixels.annotateApprox(0.0, 255.0, "kmeans.pixels");
        centroids.annotateApprox(0.0, 255.0, "kmeans.centroids");
        SimArray<i16> labels(rt, n, "labels"); // precise

        // Pixels drawn from k ground-truth color clusters.
        double truth[k][3];
        for (auto &c : truth)
            for (double &ch : c)
                ch = rng.uniform(20.0, 235.0);
        // Pixels arrive in spatially coherent segments (image regions
        // belong to one color cluster for a stretch), not i.i.d.
        unsigned segCluster = 0;
        for (u64 i = 0; i < n; ++i) {
            if (i % 48 == 0)
                segCluster = static_cast<unsigned>(rng.below(k));
            const auto &c = truth[segCluster];
            for (unsigned ch = 0; ch < 3; ++ch) {
                const double v = c[ch] + rng.gaussian(0.0, 26.0);
                pixels.poke(i * 3 + ch, static_cast<u8>(
                    std::clamp(v, 0.0, 255.0)));
            }
        }
        // Deterministic centroid seeding from the first points.
        for (unsigned c = 0; c < k; ++c)
            for (unsigned ch = 0; ch < 3; ++ch)
                centroids.poke(c * 3 + ch, static_cast<float>(
                    pixels.peek((c * 9973 % n) * 3 + ch)));

        double cost = 0.0;
        for (unsigned it = 0; it < iters; ++it) {
            // Read the centroid table once per iteration (it is tiny
            // and would be L1-resident in the real code).
            double cent[k][3];
            for (unsigned c = 0; c < k; ++c)
                for (unsigned ch = 0; ch < 3; ++ch)
                    cent[c][ch] = centroids.get(c * 3 + ch);

            double acc[k][3] = {};
            u64 cnt[k] = {};
            cost = 0.0;
            rt.parallelFor(0, n, 128, [&](u64 i) {
                u8 rgb[3];
                pixels.getRun(i * 3, 3, rgb);
                const double p[3] = {static_cast<double>(rgb[0]),
                                     static_cast<double>(rgb[1]),
                                     static_cast<double>(rgb[2])};
                unsigned best = 0;
                double bestD = 1e30;
                for (unsigned c = 0; c < k; ++c) {
                    double d = 0.0;
                    for (unsigned ch = 0; ch < 3; ++ch) {
                        const double diff = p[ch] - cent[c][ch];
                        d += diff * diff;
                    }
                    if (d < bestD) {
                        bestD = d;
                        best = c;
                    }
                }
                labels.set(i, static_cast<i16>(best));
                for (unsigned ch = 0; ch < 3; ++ch)
                    acc[best][ch] += p[ch];
                ++cnt[best];
                cost += bestD;
                rt.addWork(10 + 8 * k);
            });

            rt.setCore(0);
            for (unsigned c = 0; c < k; ++c) {
                if (!cnt[c])
                    continue;
                for (unsigned ch = 0; ch < 3; ++ch) {
                    centroids.set(c * 3 + ch, static_cast<float>(
                        acc[c][ch] / static_cast<double>(cnt[c])));
                }
            }
        }

        out.clear();
        for (unsigned c = 0; c < k; ++c)
            for (unsigned ch = 0; ch < 3; ++ch)
                out.push_back(centroids.get(c * 3 + ch));
        out.push_back(cost / static_cast<double>(n) / (255.0 * 255.0));
    }

    double
    outputError(const std::vector<double> &approx,
                const std::vector<double> &precise) const override
    {
        // Final centroid positions, scaled to the color range.
        std::vector<double> a(approx.begin(), approx.end() - 1);
        std::vector<double> p(precise.begin(), precise.end() - 1);
        return meanAbsErrorNormalized(a, p, 255.0);
    }
};

} // namespace

std::unique_ptr<Workload>
makeKmeans(const WorkloadConfig &config)
{
    return std::make_unique<Kmeans>(config);
}

} // namespace dopp
