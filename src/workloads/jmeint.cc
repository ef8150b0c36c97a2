/**
 * @file
 * jmeint: triangle-triangle intersection testing (AxBench, from the
 * jMonkeyEngine collision kernel).
 *
 * A stream of 3-D triangle pairs is classified as intersecting or not
 * using Möller's interval-overlap test. The vertex coordinates are
 * annotated approximate (Table 2: 94.7% approximate footprint); the
 * paper notes element-wise similarity is hard to find here — a single
 * element over threshold disqualifies a block pair — yet block-granular
 * maps still extract similarity (Sec 5.1).
 *
 * Error metric: misclassification rate [8].
 */

#include <cmath>

#include "util/random.hh"
#include "workloads/error_metrics.hh"
#include "workloads/workload.hh"

namespace dopp
{

namespace
{

struct Vec3
{
    double x = 0;
    double y = 0;
    double z = 0;
};

Vec3
operator-(const Vec3 &a, const Vec3 &b)
{
    return {a.x - b.x, a.y - b.y, a.z - b.z};
}

Vec3
cross(const Vec3 &a, const Vec3 &b)
{
    return {a.y * b.z - a.z * b.y, a.z * b.x - a.x * b.z,
            a.x * b.y - a.y * b.x};
}

double
dot(const Vec3 &a, const Vec3 &b)
{
    return a.x * b.x + a.y * b.y + a.z * b.z;
}

/** Compute the parametric interval of triangle/plane intersection. */
bool
computeInterval(double proj0, double proj1, double proj2, double d0,
                double d1, double d2, double &t0, double &t1)
{
    // Group the vertex on one side of the plane apart from the others.
    if (d0 * d1 > 0.0) {
        // d2 on the other side.
        t0 = proj2 + (proj0 - proj2) * d2 / (d2 - d0);
        t1 = proj2 + (proj1 - proj2) * d2 / (d2 - d1);
    } else if (d0 * d2 > 0.0) {
        t0 = proj1 + (proj0 - proj1) * d1 / (d1 - d0);
        t1 = proj1 + (proj2 - proj1) * d1 / (d1 - d2);
    } else if (d1 * d2 > 0.0 || d0 != 0.0) {
        t0 = proj0 + (proj1 - proj0) * d0 / (d0 - d1);
        t1 = proj0 + (proj2 - proj0) * d0 / (d0 - d2);
    } else if (d1 != 0.0) {
        t0 = proj1 + (proj0 - proj1) * d1 / (d1 - d0);
        t1 = proj1 + (proj2 - proj1) * d1 / (d1 - d2);
    } else if (d2 != 0.0) {
        t0 = proj2 + (proj0 - proj2) * d2 / (d2 - d0);
        t1 = proj2 + (proj1 - proj2) * d2 / (d2 - d1);
    } else {
        return false; // coplanar
    }
    return true;
}

/** Möller's interval-overlap triangle-triangle intersection test.
 * Coplanar pairs are reported as non-intersecting (measure-zero for
 * our randomized inputs). */
bool
triTriIntersect(const Vec3 t1[3], const Vec3 t2[3])
{
    // Plane of triangle 2.
    const Vec3 n2 = cross(t2[1] - t2[0], t2[2] - t2[0]);
    const double d2c = -dot(n2, t2[0]);
    double du[3];
    for (int i = 0; i < 3; ++i)
        du[i] = dot(n2, t1[i]) + d2c;
    constexpr double eps = 1e-12;
    for (double &d : du)
        if (std::abs(d) < eps)
            d = 0.0;
    if (du[0] * du[1] > 0.0 && du[0] * du[2] > 0.0)
        return false; // triangle 1 entirely on one side

    // Plane of triangle 1.
    const Vec3 n1 = cross(t1[1] - t1[0], t1[2] - t1[0]);
    const double d1c = -dot(n1, t1[0]);
    double dv[3];
    for (int i = 0; i < 3; ++i)
        dv[i] = dot(n1, t2[i]) + d1c;
    for (double &d : dv)
        if (std::abs(d) < eps)
            d = 0.0;
    if (dv[0] * dv[1] > 0.0 && dv[0] * dv[2] > 0.0)
        return false;

    // Direction of the intersection line; project on dominant axis.
    const Vec3 dir = cross(n1, n2);
    const double ax = std::abs(dir.x);
    const double ay = std::abs(dir.y);
    const double az = std::abs(dir.z);
    auto proj = [&](const Vec3 &v) {
        if (ax >= ay && ax >= az)
            return v.x;
        return ay >= az ? v.y : v.z;
    };

    double a0, a1, b0, b1;
    if (!computeInterval(proj(t1[0]), proj(t1[1]), proj(t1[2]), du[0],
                         du[1], du[2], a0, a1)) {
        return false;
    }
    if (!computeInterval(proj(t2[0]), proj(t2[1]), proj(t2[2]), dv[0],
                         dv[1], dv[2], b0, b1)) {
        return false;
    }
    if (a0 > a1)
        std::swap(a0, a1);
    if (b0 > b1)
        std::swap(b0, b1);
    return a1 >= b0 && b1 >= a0;
}

class Jmeint : public Workload
{
  public:
    using Workload::Workload;

    const char *name() const override { return "jmeint"; }

    void
    run(SimRuntime &rt) override
    {
        const u64 n = scaled(52000, 64); // triangle pairs
        Rng rng(cfg.seed);

        // 18 coordinates per pair, annotated approximate. The declared
        // range is the *model's* conservative bounding volume (Sec 4.1:
        // "a conservative estimate of the range"), much wider than the
        // scene chunk these queries cover — which is what lets block
        // maps alias despite poor element-wise similarity.
        SimArray<float> coords(rt, n * 18, "triangles");
        coords.annotateApprox(-4.0, 4.0, "jmeint.coords");
        SimArray<u8> result(rt, n, "results"); // precise output flags

        // Collision queries come from a 3-D scene: triangle pairs
        // cluster in spatial cells (a mesh's triangles are not
        // uniformly random), and coordinates carry the limited
        // precision of model data. Both properties give jmeint its
        // block-granular value similarity despite poor element-wise
        // similarity (Sec 5.1).
        constexpr unsigned sceneCells = 12;
        auto quant = [](double v) {
            return std::round(v * 512.0) / 512.0; // model precision
        };
        for (u64 i = 0; i < n; ++i) {
            const double cellX =
                static_cast<double>(rng.below(sceneCells)) /
                sceneCells;
            const double cellY =
                static_cast<double>(rng.below(sceneCells)) /
                sceneCells;
            const double cellZ =
                static_cast<double>(rng.below(sceneCells)) /
                sceneCells;
            const double cell[3] = {cellX, cellY, cellZ};
            double base[9];
            for (unsigned j = 0; j < 9; ++j)
                base[j] = cell[j % 3] + rng.uniform(0.0, 1.0 /
                                                    sceneCells);
            const double off = rng.uniform(-0.03, 0.03);
            for (unsigned j = 0; j < 9; ++j)
                coords.poke(i * 18 + j,
                            static_cast<float>(quant(base[j])));
            for (unsigned j = 0; j < 9; ++j) {
                const double c = base[j] + off +
                    rng.uniform(-0.02, 0.02);
                coords.poke(i * 18 + 9 + j,
                            static_cast<float>(quant(c)));
            }
        }

        auto classify = [&](u64 i) {
            Vec3 t1[3];
            Vec3 t2[3];
            float v[18];
            coords.getRun(i * 18, 18, v);
            for (int k = 0; k < 3; ++k) {
                t1[k] = {v[k * 3], v[k * 3 + 1], v[k * 3 + 2]};
                t2[k] = {v[9 + k * 3], v[9 + k * 3 + 1],
                         v[9 + k * 3 + 2]};
            }
            rt.addWork(60);
            return triTriIntersect(t1, t2);
        };

        // Frame 1: classify every pair. A pair's first classification
        // uses the exact fetched values (Doppelgänger forwards miss
        // data before placement, Sec 3.3).
        out.assign(n + n / 4, 0.0);
        rt.parallelFor(0, n, 32, [&](u64 i) {
            const bool hit = classify(i);
            result.set(i, hit ? 1 : 0);
            out[i] = hit ? 1.0 : 0.0;
        });

        // Frame 2: the collision loop re-tests a quarter of the pairs
        // (the scene barely moved); these re-reads observe the
        // doppelgänger values the LLC now serves.
        rt.parallelFor(0, n / 4, 32, [&](u64 q) {
            const u64 i = q * 4;
            out[n + q] = classify(i) ? 1.0 : 0.0;
        });
    }

    double
    outputError(const std::vector<double> &approx,
                const std::vector<double> &precise) const override
    {
        return misclassificationRate(approx, precise);
    }
};

} // namespace

std::unique_ptr<Workload>
makeJmeint(const WorkloadConfig &config)
{
    return std::make_unique<Jmeint>(config);
}

} // namespace dopp
