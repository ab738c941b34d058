#include "arith/quantize.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace hnlpu {

QuantizedVector
quantizeSymmetric(const std::vector<double> &reals, unsigned width)
{
    QuantizedVector q;
    quantizeSymmetric(reals, width, q);
    return q;
}

void
quantizeSymmetric(std::span<const double> reals, unsigned width,
                  QuantizedVector &out)
{
    hnlpu_assert(width >= 2 && width <= 32, "bad quantise width ", width);
    out.width = width;
    out.values.resize(reals.size());

    double abs_max = 0.0;
    for (double r : reals)
        abs_max = std::max(abs_max, std::fabs(r));

    const double max_code =
        static_cast<double>((std::int64_t(1) << (width - 1)) - 1);
    out.scale = abs_max > 0.0 ? abs_max / max_code : 1.0;

    for (std::size_t i = 0; i < reals.size(); ++i) {
        double code = std::nearbyint(reals[i] / out.scale);
        code = std::min(code, max_code);
        code = std::max(code, -max_code - 1.0);
        out.values[i] = static_cast<std::int64_t>(code);
    }
}

std::vector<double>
dequantize(const QuantizedVector &q)
{
    std::vector<double> reals(q.values.size());
    for (std::size_t i = 0; i < q.values.size(); ++i)
        reals[i] = static_cast<double>(q.values[i]) * q.scale;
    return reals;
}

double
quantizeErrorBound(double abs_max, unsigned width)
{
    const double max_code =
        static_cast<double>((std::int64_t(1) << (width - 1)) - 1);
    const double scale = abs_max > 0.0 ? abs_max / max_code : 1.0;
    return scale * 0.5;
}

} // namespace hnlpu
