/**
 * @file
 * Runtime quality-of-result guardrail with graceful precise-mode
 * degradation.
 *
 * The paper bounds application error statically: the programmer
 * declares value ranges and the map function guarantees any two blocks
 * sharing an entry agree to within one bin. Injected faults break that
 * guarantee — a flipped data bit or a mis-linked tag can serve values
 * arbitrarily far from the declared range. The guardrail closes the
 * loop at runtime: the LLC reports every *substitution event* whose
 * error is exactly measurable in place (an approximate fill joining an
 * existing entry, a writeback whose values are dropped, a data bit
 * flip), the guardrail folds the per-element normalized error into an
 * exponentially weighted estimate, and when the estimate exceeds the
 * per-workload budget the LLC *degrades*: subsequent approximate fills
 * take the precise path (split organization routes them to the precise
 * half; uniDoppelgänger inserts them as precise entries). Hysteresis —
 * a lower re-enable threshold plus a minimum dwell — keeps the state
 * machine from chattering when the estimate sits near the budget.
 *
 * Cross-tier extension (DESIGN.md §13): with a tiered main memory the
 * guardrail escalates in two steps. Degrading LLC fills to the precise
 * path only stops *new* approximation error; bit flips injected by an
 * approximate memory partition keep arriving on every demand read. So
 * when the estimate keeps climbing past budget × migrateFactor while
 * already degraded, the guardrail fires onMigrate(true) — the harness
 * wires it to MainMemory::migrateApproxToPrecise(), pinning the
 * approximate regions' pages to the precise partition — and when the
 * estimate recovers below the re-enable band it steps all the way back
 * down (onMigrate(false) restores the approximate routes). The same
 * dwell-based hysteresis guards every transition. migrateFactor <= 0
 * (the default) disables the third state entirely, preserving the
 * original two-state behavior bit-for-bit.
 *
 * State machine:
 *
 *      estimate > budget, dwell elapsed
 *   APPROX ────────────────────────────────► DEGRADED
 *      ◄────────────────────────────────         │
 *      estimate < budget × reenableFraction,     │ estimate > budget
 *      dwell elapsed (from DEGRADED or           │ × migrateFactor,
 *      MIGRATED; MIGRATED also restores          ▼ migrateDwell
 *      the approximate memory routes)        MIGRATED
 */

#ifndef DOPP_FAULT_QOR_GUARDRAIL_HH
#define DOPP_FAULT_QOR_GUARDRAIL_HH

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "sim/approx.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace dopp
{

/** Guardrail tuning; budget <= 0 disables the guardrail entirely. */
struct QorConfig
{
    /** Windowed mean normalized-error budget (e.g. 0.05 = 5%). */
    double budget = 0.0;

    /** Re-enable approximation when the estimate falls below
     * budget × reenableFraction (hysteresis band). */
    double reenableFraction = 0.5;

    /** EWMA horizon in observations: alpha = 1 / window. */
    u64 window = 512;

    /** Minimum observations between state flips (anti-chatter). */
    u64 minDwell = 128;

    /**
     * Cross-tier escalation threshold: while DEGRADED, an estimate
     * above budget × migrateFactor (after migrateDwell further
     * observations) escalates to MIGRATED — the approximate memory
     * regions are re-routed to a precise partition via onMigrate.
     * <= 0 disables the MIGRATED state (legacy two-state machine).
     */
    double migrateFactor = 0.0;

    /** Minimum observations spent DEGRADED before escalating. */
    u64 migrateDwell = 256;

    bool enabled() const { return budget > 0.0; }
};

/** One contiguous run of degraded (precise-mode) operation. */
struct DegradedInterval
{
    u64 beginOp = 0; ///< observation count when degradation engaged
    u64 endOp = 0;   ///< observation count when it lifted (or run end)
};

/**
 * EWMA error estimator + budget comparator + hysteresis state machine.
 * Purely deterministic: state is a function of the observation
 * sequence only.
 */
class QorGuardrail
{
  public:
    explicit QorGuardrail(const QorConfig &config) : cfg(config) {}

    const QorConfig &config() const { return cfg; }

    /**
     * Fold one substitution event into the estimate: @p mean_error is
     * the event's mean per-element error, already normalized to the
     * region's declared span (1.0 = a full-range substitution).
     */
    void
    observeError(double mean_error)
    {
        observe(mean_error < 0.0 ? 0.0 : mean_error);
    }

    /** Fold one error-free operation in (decays the estimate). */
    void observeClean() { observe(0.0); }

    /** Whether approximate fills should currently take the precise
     * path (true in both DEGRADED and MIGRATED). Always false when
     * the guardrail is disabled. */
    bool degraded() const { return degradedNow; }

    /** Whether the cross-tier MIGRATED state is active. */
    bool migrated() const { return migratedNow; }

    /** Current EWMA error estimate. */
    double estimate() const { return ewma; }

    /** Observations folded in so far. */
    u64 observations() const { return obs; }

    /** APPROX→DEGRADED transitions taken. */
    u64 degradationCount() const { return flips; }

    /** DEGRADED→MIGRATED escalations taken. */
    u64 migrationCount() const { return migrations_; }

    /**
     * Cross-tier escalation hook: called with true on
     * DEGRADED→MIGRATED (migrate the approximate regions to a precise
     * partition) and false when MIGRATED steps back down (restore the
     * approximate routes). Must be deterministic and must not call
     * back into the guardrail.
     */
    std::function<void(bool)> onMigrate;

    /**
     * Degradation intervals so far; an interval still open at call
     * time is reported with endOp == current observation count.
     */
    std::vector<DegradedInterval>
    intervals() const
    {
        std::vector<DegradedInterval> out = closed;
        if (degradedNow) {
            DegradedInterval open;
            open.beginOp = openBegin;
            open.endOp = obs;
            out.push_back(open);
        }
        return out;
    }

    /** Observations spent in the degraded state so far. */
    u64
    degradedOps() const
    {
        u64 sum = 0;
        for (const auto &iv : closed)
            sum += iv.endOp - iv.beginOp;
        if (degradedNow)
            sum += obs - openBegin;
        return sum;
    }

    /**
     * Expose guardrail state under @p group: counter functions over
     * the estimator state, the current estimate as a formula, and a
     * distribution of non-zero substitution errors sampled as they
     * are observed. The guardrail must outlive the registry's
     * snapshots.
     */
    void
    registerStats(StatGroup group)
    {
        group.counterFn(
            "observations", [this] { return obs; },
            "substitution events folded into the estimate");
        group.counterFn(
            "degradations", [this] { return flips; },
            "APPROX to DEGRADED transitions taken");
        group.counterFn(
            "degradedOps", [this] { return degradedOps(); },
            "observations spent in the degraded state");
        group.counterFn(
            "degradedNow", [this] { return degradedNow ? 1 : 0; },
            "whether approximation is currently degraded");
        group.counterFn(
            "migrations", [this] { return migrations_; },
            "DEGRADED to MIGRATED cross-tier escalations");
        group.counterFn(
            "migratedNow", [this] { return migratedNow ? 1 : 0; },
            "whether the cross-tier MIGRATED state is active");
        group.formula(
            "estimate", [this] { return ewma; },
            "EWMA normalized-error estimate");
        errorDist = &group.distribution(
            "substitutionError",
            "non-zero normalized substitution errors observed");
    }

  private:
    void
    observe(double sample)
    {
        if (errorDist && sample > 0.0)
            errorDist->sample(sample);
        if (!cfg.enabled())
            return;
        ++obs;
        const double alpha =
            1.0 / static_cast<double>(cfg.window ? cfg.window : 1);
        ewma += alpha * (sample - ewma);

        if (obs - lastFlip < cfg.minDwell)
            return;
        if (!degradedNow && ewma > cfg.budget) {
            degradedNow = true;
            openBegin = obs;
            lastFlip = obs;
            ++flips;
        } else if (degradedNow && !migratedNow &&
                   cfg.migrateFactor > 0.0 &&
                   ewma > cfg.budget * cfg.migrateFactor &&
                   obs - lastFlip >= cfg.migrateDwell) {
            // Still over the escalated threshold after a full dwell
            // in DEGRADED: precise-path fills alone cannot hold the
            // error (the memory tier keeps injecting), so migrate.
            migratedNow = true;
            ++migrations_;
            lastFlip = obs;
            if (onMigrate)
                onMigrate(true);
        } else if (degradedNow &&
                   ewma < cfg.budget * cfg.reenableFraction) {
            if (migratedNow) {
                migratedNow = false;
                if (onMigrate)
                    onMigrate(false);
            }
            degradedNow = false;
            DegradedInterval iv;
            iv.beginOp = openBegin;
            iv.endOp = obs;
            closed.push_back(iv);
            lastFlip = obs;
        }
    }

    QorConfig cfg;
    double ewma = 0.0;
    u64 obs = 0;
    u64 lastFlip = 0;
    u64 flips = 0;
    u64 migrations_ = 0;
    bool degradedNow = false;
    bool migratedNow = false;
    u64 openBegin = 0;
    std::vector<DegradedInterval> closed;
    Distribution *errorDist = nullptr; ///< set by registerStats()
};

/**
 * Mean per-element error between two 64 B blocks, normalized to
 * @p span (the region's declared max − min); each element's
 * contribution is capped at 1.0 so one wild element cannot report
 * more than a full-range substitution. Elements are interpreted per
 * @p type (sim/approx.hh).
 */
double blockSubstitutionError(const u8 *served, const u8 *exact,
                              ElemType elem_type, double span);

/**
 * Flip bit @p bit of the 64 B @p block and score the flip: the flipped
 * element's |after − before| normalized to @p span, capped at 1.0 (a
 * non-finite score is 1.0 too). The score is that one element's, not
 * the block mean: its consumer sees the full deviation, and averaging
 * a single corrupt value over its clean neighbours would hide exactly
 * the rare sign or exponent flips the guardrail exists to catch.
 * Inline because the conventional LLC (sim/) scores with it too.
 */
inline double
flipBitError(u8 *block, u32 bit, ElemType elem_type, double span)
{
    const unsigned elem = bit / elemBits(elem_type);
    const double before = blockElement(block, elem_type, elem);
    block[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
    const double after = blockElement(block, elem_type, elem);
    const double err = std::abs(after - before) / std::max(span, 1e-30);
    return std::isfinite(err) && err <= 1.0 ? err : 1.0;
}

} // namespace dopp

#endif // DOPP_FAULT_QOR_GUARDRAIL_HH
