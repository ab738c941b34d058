/**
 * @file
 * Symmetric fixed-point quantisation of real activations.
 *
 * The HN array consumes integer activations (streamed bit-serially); this
 * module quantises floating-point activation vectors to signed
 * @p width-bit integers with a shared power-aware scale and converts the
 * integer results back.  Combined with the FP4 weight codec, a whole GEMV
 * can be executed exactly in integer arithmetic and dequantised once.
 */

#ifndef HNLPU_ARITH_QUANTIZE_HH
#define HNLPU_ARITH_QUANTIZE_HH

#include <cstdint>
#include <span>
#include <vector>

namespace hnlpu {

/** An integer activation vector plus the scale that reconstitutes it. */
struct QuantizedVector
{
    std::vector<std::int64_t> values; //!< quantised integers
    double scale = 1.0;               //!< real = value * scale
    unsigned width = 8;               //!< bits per element
};

/**
 * Quantise @p reals symmetrically to @p width-bit signed integers.
 * The scale maps the absolute maximum onto the largest positive code;
 * all-zero input yields scale 1.
 */
QuantizedVector quantizeSymmetric(const std::vector<double> &reals,
                                  unsigned width);

/**
 * quantizeSymmetric into @p out, reusing its buffer: a caller that
 * quantises columns of one length every step allocates nothing.
 */
void quantizeSymmetric(std::span<const double> reals, unsigned width,
                       QuantizedVector &out);

/** Reconstitute reals from a quantised vector. */
std::vector<double> dequantize(const QuantizedVector &q);

/**
 * Worst-case absolute quantisation error of a symmetric @p width-bit
 * quantiser for the given absolute maximum (half a step).
 */
double quantizeErrorBound(double abs_max, unsigned width);

} // namespace hnlpu

#endif // HNLPU_ARITH_QUANTIZE_HH
