/**
 * @file
 * fluidanimate: smoothed-particle-hydrodynamics fluid step (PARSEC).
 *
 * Particles in a box interact through SPH density and pressure forces
 * found via a uniform cell grid. Only the density field is annotated
 * approximate — the paper annotates just a small slice of this
 * benchmark's data (Table 2: 3.6% approximate footprint), leaving
 * positions, velocities, forces and the cell index precise.
 *
 * Error metric: mean particle position error relative to the domain
 * size [32].
 */

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/random.hh"
#include "workloads/error_metrics.hh"
#include "workloads/workload.hh"

namespace dopp
{

namespace
{

constexpr double boxSize = 1.0;
constexpr double smoothing = 0.035;   ///< SPH kernel radius
constexpr double restDensity = 1000.0;
constexpr double stiffness = 2.5;
constexpr double particleMass = 0.0006;
constexpr double timeStep = 0.002;

class Fluidanimate : public Workload
{
  public:
    using Workload::Workload;

    const char *name() const override { return "fluidanimate"; }

    void
    run(SimRuntime &rt) override
    {
        const u64 n = scaled(22000, 256);
        const unsigned steps = 2;
        Rng rng(cfg.seed);

        // Precise particle state.
        SimArray<float> px(rt, n, "posX");
        SimArray<float> py(rt, n, "posY");
        SimArray<float> pz(rt, n, "posZ");
        SimArray<float> vx(rt, n, "velX");
        SimArray<float> vy(rt, n, "velY");
        SimArray<float> vz(rt, n, "velZ");
        // The annotated approximate slice: densities.
        SimArray<float> density(rt, n, "density");
        density.annotateApprox(0.0, 4000.0, "fluid.density");

        // Dense block of fluid in the lower half of the box.
        for (u64 i = 0; i < n; ++i) {
            px.poke(i, static_cast<float>(rng.uniform(0.05, 0.95)));
            py.poke(i, static_cast<float>(rng.uniform(0.05, 0.5)));
            pz.poke(i, static_cast<float>(rng.uniform(0.05, 0.95)));
            vx.poke(i, 0.0f);
            vy.poke(i, 0.0f);
            vz.poke(i, 0.0f);
        }

        const unsigned cells = static_cast<unsigned>(boxSize / smoothing);
        const double h2 = smoothing * smoothing;

        auto cellOf = [&](double x) {
            const auto c = static_cast<int>(x / smoothing);
            return std::clamp(c, 0, static_cast<int>(cells) - 1);
        };

        // The cell index (native structure; the precise arrays are
        // read through the caches first), in CSR form: cell c holds
        // cellItems[cellStart[c] .. cellStart[c + 1]), in ascending
        // particle order. Positions stay floats (px's element type, so
        // each reads back as exactly the double the kernel computes
        // with), once by particle (hx) and once in CSR order (sx).
        const size_t numCells = static_cast<size_t>(cells) * cells * cells;
        std::vector<u32> cellStart(numCells + 1);
        std::vector<u32> cellNext(numCells);
        std::vector<u32> cellItems(n);
        std::vector<u32> cellIds(n);
        std::vector<float> hx(n), hy(n), hz(n);
        std::vector<float> sx(n), sy(n), sz(n);
        // One column run's hits: CSR index and r².
        std::vector<u32> hitK;
        std::vector<double> hitR2;

        for (unsigned step = 0; step < steps; ++step) {
            rt.parallelFor(0, n, 256, [&](u64 i) {
                hx[i] = px.get(i);
                hy[i] = py.get(i);
                hz[i] = pz.get(i);
            });
            // Counting sort of the particles by cell.
            std::fill(cellStart.begin(), cellStart.end(), 0);
            for (u64 i = 0; i < n; ++i) {
                const size_t c =
                    (static_cast<size_t>(cellOf(hx[i])) * cells +
                     cellOf(hy[i])) * cells + cellOf(hz[i]);
                cellIds[i] = static_cast<u32>(c);
                ++cellStart[c + 1];
            }
            u32 maxCell = 0;
            for (size_t c = 0; c < numCells; ++c) {
                maxCell = std::max(maxCell, cellStart[c + 1]);
                cellStart[c + 1] += cellStart[c];
            }
            std::copy(cellStart.begin(), cellStart.end() - 1,
                      cellNext.begin());
            for (u64 i = 0; i < n; ++i) {
                const u32 k = cellNext[cellIds[i]]++;
                cellItems[k] = static_cast<u32>(i);
                sx[k] = hx[i];
                sy[k] = hy[i];
                sz[k] = hz[i];
            }
            // A column run spans at most three cells.
            hitK.resize(3 * static_cast<size_t>(maxCell));
            hitR2.resize(hitK.size());

            // Cells (x, y, z-1), (x, y, z) and (x, y, z+1) are adjacent
            // in the CSR array, so each (dx, dy) column of the 3x3x3
            // neighbourhood is one contiguous run, visited in the same
            // order as cell by cell. A run is scanned in two loops: the
            // first computes r² for every candidate and appends the CSR
            // index to the hit list when keep(k, r²) holds, without a
            // branch; the second runs body(k, r²) for each hit in run
            // order, so addends and simulated accesses keep their order.
            auto forEachHit = [&](u64 i, auto &&keep, auto &&body) {
                const double xi = hx[i];
                const double yi = hy[i];
                const double zi = hz[i];
                const int cx = cellOf(xi);
                const int cy = cellOf(yi);
                const int cz = cellOf(zi);
                const int last = static_cast<int>(cells) - 1;
                const size_t z0 = static_cast<size_t>(std::max(cz - 1, 0));
                const size_t z1 = static_cast<size_t>(std::min(cz + 1, last));
                for (int nx = std::max(cx - 1, 0);
                     nx <= std::min(cx + 1, last); ++nx)
                    for (int ny = std::max(cy - 1, 0);
                         ny <= std::min(cy + 1, last); ++ny) {
                        const size_t column =
                            (static_cast<size_t>(nx) * cells + ny) * cells;
                        const u32 k0 = cellStart[column + z0];
                        const u32 k1 = cellStart[column + z1 + 1];
                        u32 hits = 0;
                        for (u32 k = k0; k < k1; ++k) {
                            const double dx = xi - sx[k];
                            const double dy = yi - sy[k];
                            const double dz = zi - sz[k];
                            const double r2 = dx * dx + dy * dy + dz * dz;
                            hitK[hits] = k;
                            hitR2[hits] = r2;
                            hits += keep(k, r2) ? 1 : 0;
                        }
                        for (u32 h = 0; h < hits; ++h)
                            body(hitK[h], hitR2[h]);
                    }
            };

            // Density pass: writes the approximate density field.
            // Poly6 kernel: W(r) = 315/(64π h⁹) (h² − r²)³.
            const double poly6 = 315.0 /
                (64.0 * 3.14159265358979323846 *
                 std::pow(smoothing, 9.0));
            rt.parallelFor(0, n, 64, [&](u64 i) {
                double rho = 0.0;
                forEachHit(
                    i, [&](u32, double r2) { return r2 < h2; },
                    [&](u32, double r2) {
                        const double w = h2 - r2;
                        rho += particleMass * poly6 * w * w * w;
                    });
                density.set(i, static_cast<float>(rho));
                rt.addWork(40);
            });

            // Force + integrate pass: reads the approximate densities.
            // A neighbour counts unless it is i itself, out of range or
            // too close. The range tests are negated comparisons, so a
            // NaN r² (a position wrecked by a corrupt density) counts,
            // as the pinned results require.
            rt.parallelFor(0, n, 64, [&](u64 i) {
                const double di = density.get(i);
                const double xi = hx[i];
                const double yi = hy[i];
                const double zi = hz[i];
                double fx = 0.0;
                double fy = -9.8 * particleMass; // gravity
                double fz = 0.0;
                forEachHit(
                    i,
                    [&](u32 k, double r2) {
                        return (cellItems[k] != i) & !(r2 >= h2) &
                            !(r2 < 1e-12);
                    },
                    [&](u32 k, double r2) {
                        const double dx = xi - sx[k];
                        const double dy = yi - sy[k];
                        const double dz = zi - sz[k];
                        const double dj = density.get(cellItems[k]);
                        const double r = std::sqrt(r2);
                        const double pi = stiffness * (di - restDensity);
                        const double pj = stiffness * (dj - restDensity);
                        const double scale = particleMass *
                            (pi + pj) / (2.0 * std::max(dj, 1.0)) *
                            (smoothing - r) / std::max(r, 1e-6) * 1e-4;
                        fx += dx * scale;
                        fy += dy * scale;
                        fz += dz * scale;
                    });
                double nvx = vx.get(i) + timeStep * fx / particleMass;
                double nvy = vy.get(i) + timeStep * fy / particleMass;
                double nvz = vz.get(i) + timeStep * fz / particleMass;
                double nx = xi + timeStep * nvx;
                double ny = yi + timeStep * nvy;
                double nz = zi + timeStep * nvz;
                // Reflecting walls.
                auto bounce = [](double &p, double &v) {
                    if (p < 0.0) {
                        p = -p;
                        v = -v * 0.5;
                    } else if (p > boxSize) {
                        p = 2.0 * boxSize - p;
                        v = -v * 0.5;
                    }
                };
                bounce(nx, nvx);
                bounce(ny, nvy);
                bounce(nz, nvz);
                vx.set(i, static_cast<float>(nvx));
                vy.set(i, static_cast<float>(nvy));
                vz.set(i, static_cast<float>(nvz));
                px.set(i, static_cast<float>(nx));
                py.set(i, static_cast<float>(ny));
                pz.set(i, static_cast<float>(nz));
                rt.addWork(60);
            });
        }

        // Output: sampled final particle positions.
        out.clear();
        for (u64 i = 0; i < n; i += 8) {
            out.push_back(px.get(i));
            out.push_back(py.get(i));
            out.push_back(pz.get(i));
        }
    }

    double
    outputError(const std::vector<double> &approx,
                const std::vector<double> &precise) const override
    {
        return meanAbsErrorNormalized(approx, precise, boxSize);
    }
};

} // namespace

std::unique_ptr<Workload>
makeFluidanimate(const WorkloadConfig &config)
{
    return std::make_unique<Fluidanimate>(config);
}

} // namespace dopp
