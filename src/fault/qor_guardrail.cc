#include "qor_guardrail.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace dopp
{

namespace
{

/** blockSubstitutionError for one element type: whole-element memcpy
 * loads instead of a per-element type switch, with the same divide,
 * cap and summation order. */
template <typename T>
double
substitutionError(const u8 *served, const u8 *exact, double width)
{
    constexpr unsigned n = blockBytes / sizeof(T);
    double sum = 0.0;
    for (unsigned i = 0; i < n; ++i) {
        T a;
        T p;
        std::memcpy(&a, served + i * sizeof(T), sizeof(T));
        std::memcpy(&p, exact + i * sizeof(T), sizeof(T));
        double err = std::abs(static_cast<double>(a) -
                              static_cast<double>(p)) / width;
        if (!std::isfinite(err) || err > 1.0)
            err = 1.0; // cap: one wild element = one full-range miss
        sum += err;
    }
    return sum / static_cast<double>(n);
}

} // namespace

double
blockSubstitutionError(const u8 *served, const u8 *exact,
                       ElemType elem_type, double span)
{
    const double width = std::max(span, 1e-30);
    switch (elem_type) {
      case ElemType::U8:
        return substitutionError<u8>(served, exact, width);
      case ElemType::I16:
        return substitutionError<i16>(served, exact, width);
      case ElemType::I32:
        return substitutionError<i32>(served, exact, width);
      case ElemType::F32:
        return substitutionError<float>(served, exact, width);
      case ElemType::F64:
        return substitutionError<double>(served, exact, width);
    }
    return 0.0;
}

} // namespace dopp
