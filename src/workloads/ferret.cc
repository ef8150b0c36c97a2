/**
 * @file
 * ferret: content-based image similarity search (PARSEC).
 *
 * A database of image feature vectors is queried for the top-K most
 * similar entries per query image. Feature vectors are annotated
 * approximate (Table 2: 45.9% approximate footprint); image metadata
 * is precise. Candidate sets per query are deterministic, standing in
 * for ferret's index-based candidate generation.
 *
 * Error metric: fraction of queries whose top-K result *set* differs
 * from the precise run — the pessimistic metric the paper discusses
 * (other acceptable result images exist in the database) [27].
 */

#include <algorithm>
#include <array>
#include <cmath>

#include "util/random.hh"
#include "workloads/error_metrics.hh"
#include "workloads/workload.hh"

namespace dopp
{

namespace
{

constexpr unsigned featDim = 32;
constexpr unsigned topK = 4;

class Ferret : public Workload
{
  public:
    using Workload::Workload;

    const char *name() const override { return "ferret"; }

    void
    run(SimRuntime &rt) override
    {
        const u64 dbSize = scaled(16384, 512);
        const u64 queries = scaled(288, 16);
        const u64 candidates = 192;
        Rng rng(cfg.seed);

        SimArray<float> db(rt, dbSize * featDim, "database");
        SimArray<float> qf(rt, queries * featDim, "queryFeatures");
        db.annotateApprox(0.0, 1.0, "ferret.db");
        qf.annotateApprox(0.0, 1.0, "ferret.query");
        // Precise per-image metadata touched alongside each candidate
        // (ids, sizes, offsets — ferret's rich per-entry records).
        SimArray<i32> meta(rt, dbSize * 40, "metadata");

        // Database vectors cluster around a modest number of visual
        // "topics", like real image descriptors.
        constexpr unsigned topics = 48;
        double topic[topics][featDim];
        for (auto &t : topic)
            for (double &f : t)
                f = rng.uniform(0.1, 0.9);
        // Descriptors are quantized histograms (real feature pipelines
        // bin their values), which is where ferret's block-level value
        // similarity comes from.
        auto quant = [](double v) {
            return std::round(std::clamp(v, 0.0, 1.0) * 128.0) / 128.0;
        };
        for (u64 i = 0; i < dbSize; ++i) {
            const auto &t = topic[rng.below(topics)];
            float row[featDim];
            for (unsigned d = 0; d < featDim; ++d) {
                const double v = t[d] + rng.gaussian(0.0, 0.02);
                row[d] = static_cast<float>(quant(v));
            }
            db.pokeRun(i * featDim, featDim, row);
            i32 record[40];
            for (i32 &m : record)
                m = static_cast<i32>(rng.below(1000));
            meta.pokeRun(i * 40, 40, record);
        }
        // Queries are perturbed database entries, so each has
        // meaningful near neighbors.
        std::vector<u64> queryOrigin(queries);
        for (u64 q = 0; q < queries; ++q) {
            queryOrigin[q] = rng.below(dbSize);
            for (unsigned d = 0; d < featDim; ++d) {
                const double v =
                    db.peek(queryOrigin[q] * featDim + d) +
                    rng.gaussian(0.0, 0.02);
                qf.poke(q * featDim + d, static_cast<float>(
                    std::clamp(v, 0.0, 1.0)));
            }
        }

        out.clear();
        out.reserve(queries * topK);
        rt.parallelFor(0, queries, 4, [&](u64 q) {
            float feat[featDim];
            qf.getRun(q * featDim, featDim, feat);

            // Deterministic candidate set: a strided probe of the
            // database that always includes the query's origin.
            std::array<std::pair<double, u64>, topK> best;
            best.fill({1e30, dbSize});
            for (u64 j = 0; j < candidates; ++j) {
                const u64 cand = j == 0
                    ? queryOrigin[q]
                    : (q * 7919 + j * 104729) % dbSize;
                float row[featDim];
                db.getRun(cand * featDim, featDim, row);
                double dist = 0.0;
                for (unsigned d = 0; d < featDim; ++d) {
                    const double diff = static_cast<double>(feat[d]) -
                        static_cast<double>(row[d]);
                    dist += diff * diff;
                }
                // Touch the candidate's precise metadata record.
                meta.get(cand * 40 + (j % 40));
                if (dist < best.back().first) {
                    best.back() = {dist, cand};
                    std::sort(best.begin(), best.end());
                }
                rt.addWork(2 * featDim);
            }
            for (const auto &[dist, id] : best)
                out.push_back(static_cast<double>(id));
        });
    }

    double
    outputError(const std::vector<double> &approx,
                const std::vector<double> &precise) const override
    {
        return topkSetDifferenceRate(approx, precise, topK);
    }
};

} // namespace

std::unique_ptr<Workload>
makeFerret(const WorkloadConfig &config)
{
    return std::make_unique<Ferret>(config);
}

} // namespace dopp
