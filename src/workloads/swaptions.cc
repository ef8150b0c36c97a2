/**
 * @file
 * swaptions: Monte-Carlo swaption pricing (PARSEC, HJM framework).
 *
 * Each swaption is priced by simulating short-rate paths and averaging
 * discounted payoffs. Only the swaption *input parameters* are
 * annotated approximate, like the paper's annotation (Table 2: 1.5%
 * approximate footprint — the lowest of the suite); the large path
 * workspace stays precise. Because a single expected range is shared
 * by every f32 element (Sec 4.1), small-magnitude elements such as
 * interest rates are coarsely binned — the exact effect the paper
 * blames for swaptions' elevated error (Sec 5.2).
 *
 * With WorkloadConfig::perUseRanges the future-work variant is used
 * instead: rate-scale and year-scale parameters live in separate
 * regions with their own declared ranges, which restores most of the
 * lost precision (the paper's "other similarity functions ... account
 * for different ranges or different uses of the same data type").
 *
 * Error metric: mean relative error of the swaption prices [32].
 */

#include <cmath>

#include "util/random.hh"
#include "workloads/error_metrics.hh"
#include "workloads/workload.hh"

namespace dopp
{

namespace
{

constexpr unsigned pathSteps = 16;

/** AoS record layout (the paper-style shared-range mode). */
enum SwField : unsigned
{
    fStrike = 0,
    fMaturity = 1,
    fTenor = 2,
    fVol = 3,
    fR0 = 4,
    fLevel = 5,
    fSpeed = 6,
    fPad = 7,
    fCurve0 = 8, // 24 forward-curve points: 8..31
};

class Swaptions : public Workload
{
  public:
    using Workload::Workload;

    const char *name() const override { return "swaptions"; }

    void
    run(SimRuntime &rt) override
    {
        const u64 swaptions = 64;
        const u64 trials = scaled(360, 16);
        Rng rng(cfg.seed);

        // Approximate inputs. Default: one AoS record array under one
        // shared f32 range [0, 10] covering years *and* rates (the
        // paper's Sec 4.1 simplification). Per-use variant: separate
        // year-scale and rate-scale arrays with tight ranges.
        SimArray<float> recs(rt, swaptions * 32, "params");
        SimArray<float> years(rt, swaptions * 2, "paramsYears");
        SimArray<float> rates(rt, swaptions * 32, "paramsRates");
        if (!cfg.perUseRanges) {
            recs.annotateApprox(0.0, 10.0, "swaptions.params");
        } else {
            years.annotateApprox(0.0, 10.0, "swaptions.years");
            rates.annotateApprox(0.0, 0.5, "swaptions.rates");
        }

        // Accessors routing to whichever layout is active.
        auto putYear = [&](u64 s, unsigned which, float v) {
            if (cfg.perUseRanges)
                years.poke(s * 2 + which, v);
            else
                recs.poke(s * 32 + (which ? fTenor : fMaturity), v);
        };
        auto getYear = [&](u64 s, unsigned which) {
            return cfg.perUseRanges
                ? years.get(s * 2 + which)
                : recs.get(s * 32 + (which ? fTenor : fMaturity));
        };
        // Rate-scale fields are indexed 0..31 (block-aligned records):
        // 0=strike, 1=vol, 2=r0, 3=level, 4=speed, 5.. = curve.
        auto putRate = [&](u64 s, unsigned idx, float v) {
            if (cfg.perUseRanges) {
                rates.poke(s * 32 + idx, v);
            } else {
                const unsigned field =
                    idx == 0 ? fStrike
                    : idx == 1 ? fVol
                    : idx == 2 ? fR0
                    : idx == 3 ? fLevel
                    : idx == 4 ? fSpeed
                               : fCurve0 + (idx - 5);
                recs.poke(s * 32 + field, v);
            }
        };
        auto getRate = [&](u64 s, unsigned idx) {
            if (cfg.perUseRanges)
                return rates.get(s * 32 + idx);
            const unsigned field =
                idx == 0 ? fStrike
                : idx == 1 ? fVol
                : idx == 2 ? fR0
                : idx == 3 ? fLevel
                : idx == 4 ? fSpeed
                           : fCurve0 + (idx - 5);
            return recs.get(s * 32 + field);
        };

        // Precise Monte-Carlo workspace: a ring of path slots, as the
        // real benchmark keeps per-trial HJM path matrices. swaptions
        // is compute-bound with a modest working set (it fits the
        // precise LLC), matching its near-baseline traffic and runtime.
        const u64 ringSize =
            (scaled(1 << 17, 1 << 14) / pathSteps) * pathSteps;
        SimArray<float> paths(rt, ringSize, "paths");
        SimArray<float> discounts(rt, ringSize / 2, "discounts");

        for (u64 s = 0; s < swaptions; ++s) {
            putRate(s, 0, static_cast<float>(
                0.02 + 0.005 * static_cast<double>(rng.below(10))));
            // Standard market maturities/tenors (few distinct values,
            // as real swaption books quote).
            static constexpr double maturities[5] = {1, 3, 5, 7, 10};
            static constexpr double tenors[2] = {1, 5};
            putYear(s, 0, static_cast<float>(
                maturities[rng.below(5)]));
            putYear(s, 1, static_cast<float>(tenors[rng.below(2)]));
            // Quoted vols/short rates carry basis-point noise around
            // the grid points (market quotes are not exact ticks).
            putRate(s, 1, static_cast<float>(
                0.10 + 0.02 * static_cast<double>(rng.below(10)) +
                rng.uniform(-0.001, 0.001)));
            putRate(s, 2, static_cast<float>(
                0.01 + 0.005 * static_cast<double>(rng.below(10)) +
                rng.uniform(-0.001, 0.001)));
            putRate(s, 3, 0.015f); // mean-reversion level
            putRate(s, 4, 0.2f);   // mean-reversion speed
            // Forward-curve points: drawn from the same few market
            // rates for every swaption, exactly the "common interest
            // rates" redundancy the paper observes (Sec 2).
            for (unsigned p = 5; p < 29; ++p) {
                putRate(s, p, static_cast<float>(
                    0.01 + 0.005 * static_cast<double>((p * 3) % 10)));
            }
            // Pad the per-use record's tail so each spans exactly two
            // blocks (the AoS record has only 24 curve slots).
            if (cfg.perUseRanges) {
                for (unsigned p = 29; p < 32; ++p)
                    rates.poke(s * 32 + p, 0.01f);
            }
        }

        out.assign(swaptions, 0.0);
        u64 ringCursor = 0;

        rt.parallelFor(0, swaptions * trials, 8, [&](u64 job) {
            const u64 s = job / trials;
            // Load the swaption's (approximate) parameters.
            const double strike = getRate(s, 0);
            const double maturity =
                std::max<double>(getYear(s, 0), 0.25);
            const double tenor = std::max<double>(getYear(s, 1), 0.25);
            const double vol = std::max<double>(getRate(s, 1), 1e-3);
            const double r0 = std::max<double>(getRate(s, 2), 1e-4);
            const double level =
                std::max<double>(getRate(s, 3), 1e-4);
            const double speed =
                std::max<double>(getRate(s, 4), 1e-3);
            // Average a slice of the forward curve into the drift.
            double curve = 0.0;
            for (unsigned p = 0; p < 4; ++p)
                curve += getRate(s, 5 + (job + p) % 24);
            const double drift = curve / 4.0;

            // Simulate a Vasicek-style short-rate path to maturity,
            // storing it in the precise workspace.
            const double dt = maturity / pathSteps;
            const u64 slot = (ringCursor * pathSteps) % ringSize;
            ringCursor++;
            double r = r0;
            float path[pathSteps];
            for (unsigned t = 0; t < pathSteps; ++t) {
                r += speed * (level + 0.2 * drift - r) * dt +
                    vol * std::sqrt(dt) * rng.gaussian() * 0.1;
                r = std::max(r, 1e-5);
                path[t] = static_cast<float>(r);
            }
            paths.setRun(slot, pathSteps, path);
            // Re-read the path to discount and price the swap.
            double discount = 1.0;
            double lastR = r0;
            for (unsigned t = 0; t < pathSteps; ++t) {
                lastR = paths.get(slot + t);
                discount *= std::exp(-lastR * dt);
                if ((slot + t) / 2 < discounts.size() && t % 4 == 0) {
                    discounts.set((slot + t) / 2,
                                  static_cast<float>(discount));
                }
            }
            // Payer-swaption payoff on the terminal rate.
            const double swapValue =
                (lastR - strike) * tenor / (1.0 + lastR * tenor);
            const double payoff = std::max(swapValue, 0.0);
            out[s] += discount * payoff /
                static_cast<double>(trials);
            rt.addWork(20 * pathSteps);
        });
    }

    double
    outputError(const std::vector<double> &approx,
                const std::vector<double> &precise) const override
    {
        return meanRelativeError(approx, precise, 1e-3);
    }
};

} // namespace

std::unique_ptr<Workload>
makeSwaptions(const WorkloadConfig &config)
{
    return std::make_unique<Swaptions>(config);
}

} // namespace dopp
