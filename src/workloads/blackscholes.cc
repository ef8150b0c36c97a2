/**
 * @file
 * blackscholes: Black-Scholes closed-form option pricing (PARSEC).
 *
 * A portfolio of European options is priced from an array-of-structs
 * option table, as in the PARSEC code: each record packs spot, strike,
 * rate, volatility, maturity and the output price. The whole table is
 * annotated approximate (Table 2: 61.8% approximate LLC footprint).
 * The PARSEC input famously replicates a small set of distinct options
 * many times over, which is the source of the exact block-level
 * redundancy the paper observes (Sec 2) — record-granular duplication
 * also keeps the small-magnitude fields (rates) safe inside otherwise
 * identical blocks.
 *
 * Error metric: mean relative error of the option prices [27].
 */

#include <cmath>
#include <vector>

#include "util/random.hh"
#include "workloads/error_metrics.hh"
#include "workloads/workload.hh"

namespace dopp
{

namespace
{

/** Cumulative normal distribution via std::erf. */
double
cndf(double x)
{
    return 0.5 * (1.0 + std::erf(x / std::sqrt(2.0)));
}

/** Black-Scholes European option price. */
double
bsPrice(double s, double k, double r, double v, double t, bool call)
{
    const double sq = v * std::sqrt(t);
    const double d1 = (std::log(s / k) + (r + 0.5 * v * v) * t) / sq;
    const double d2 = d1 - sq;
    if (call)
        return s * cndf(d1) - k * std::exp(-r * t) * cndf(d2);
    return k * std::exp(-r * t) * cndf(-d2) - s * cndf(-d1);
}

/** Field offsets within one 8-float option record. */
enum OptField : unsigned
{
    fSpot = 0,
    fStrike = 1,
    fRate = 2,
    fVol = 3,
    fTime = 4,
    fPrice = 5,
    fDividend = 6,
    fPad = 7,
};

class Blackscholes : public Workload
{
  public:
    using Workload::Workload;

    const char *name() const override { return "blackscholes"; }

    void
    run(SimRuntime &rt) override
    {
        const u64 n = scaled(28000, 256);
        Rng rng(cfg.seed);

        // The option table: AoS records of 8 f32 fields, all
        // approximate under one shared range (Sec 4.1).
        SimArray<float> opt(rt, n * 8, "options");
        opt.annotateApprox(0.0, 250.0, "bs.options");

        // Precise bookkeeping: option type and portfolio weights.
        SimArray<i32> otype(rt, n, "otype");
        SimArray<float> weight(rt, n, "weight");

        // A modest set of distinct options (round strikes, few
        // distinct rates/vols) replicated across the table, as the
        // PARSEC input does.
        const u64 distinct = std::max<u64>(n / 16, 64);
        struct Opt
        {
            float s, k, r, v, t;
            i32 call;
        };
        std::vector<Opt> base(distinct);
        for (auto &o : base) {
            const double k =
                20.0 + 10.0 * static_cast<double>(rng.below(19));
            o.k = static_cast<float>(k);
            o.s = static_cast<float>(k * rng.uniform(0.85, 1.15));
            o.r = static_cast<float>(
                0.02 + 0.005 * static_cast<double>(rng.below(12)));
            o.v = static_cast<float>(
                0.10 + 0.05 * static_cast<double>(rng.below(9)));
            o.t = static_cast<float>(
                0.25 * static_cast<double>(1 + rng.below(8)));
            o.call = rng.below(2) ? 1 : 0;
        }
        for (u64 i = 0; i < n; ++i) {
            const Opt &o = base[i % distinct];
            opt.poke(i * 8 + fSpot, o.s);
            opt.poke(i * 8 + fStrike, o.k);
            opt.poke(i * 8 + fRate, o.r);
            opt.poke(i * 8 + fVol, o.v);
            opt.poke(i * 8 + fTime, o.t);
            opt.poke(i * 8 + fPrice, 0.0f);
            opt.poke(i * 8 + fDividend, 0.0f);
            opt.poke(i * 8 + fPad, 0.0f);
            otype.poke(i, o.call);
            weight.poke(i, static_cast<float>(rng.uniform(0.5, 1.5)));
        }

        // Phase 1: price every option.
        rt.parallelFor(0, n, 64, [&](u64 i) {
            float f[fTime + 1];
            opt.getRun(i * 8 + fSpot, fTime + 1, f);
            const double s = f[fSpot];
            const double k = f[fStrike];
            const double r = f[fRate];
            const double v = f[fVol];
            const double t = f[fTime];
            const bool call = otype.get(i) != 0;
            const double p =
                bsPrice(std::max(s, 1e-3), std::max(k, 1e-3),
                        std::max(r, 1e-4), std::max(v, 1e-3),
                        std::max(t, 1e-3), call);
            opt.set(i * 8 + fPrice, static_cast<float>(p));
            rt.addWork(48); // transcendental-heavy pricing math
        });

        // Phase 2: portfolio aggregation re-reads the prices.
        double portfolio = 0.0;
        rt.parallelFor(0, n, 64, [&](u64 i) {
            portfolio += static_cast<double>(opt.get(i * 8 + fPrice)) *
                static_cast<double>(weight.get(i));
            rt.addWork(4);
        });

        out.clear();
        out.reserve(n + 1);
        for (u64 i = 0; i < n; ++i)
            out.push_back(opt.get(i * 8 + fPrice));
        out.push_back(portfolio);
    }

    double
    outputError(const std::vector<double> &approx,
                const std::vector<double> &precise) const override
    {
        // Floor at $0.50 so deep out-of-the-money near-zero prices do
        // not dominate the relative-error average.
        return meanRelativeError(approx, precise, 0.5);
    }
};

} // namespace

std::unique_ptr<Workload>
makeBlackscholes(const WorkloadConfig &config)
{
    return std::make_unique<Blackscholes>(config);
}

} // namespace dopp
