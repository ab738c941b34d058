/**
 * @file
 * Folding a Chrome trace into per-span self times.
 *
 * The program emits nested wall-clock spans (obs::ScopedSpan) and
 * "pool.chunk" spans around every dispatched thread-pool chunk.  A
 * span's parent is the innermost span on the same thread whose interval
 * contains it, and its self time is its duration minus the part its
 * children cover.  Pool chunks mark parallel execution inside another
 * span rather than a call boundary, so they are counted on their own and
 * never become parents or children.  Simulated-time spans (names ending
 * in ".sim") share no clock with the rest and are dropped.
 */

#ifndef HNBENCH_FOLD_HH
#define HNBENCH_FOLD_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hh"

namespace hnbench {

/** One wall-clock span of the trace. */
struct Span
{
    std::string name;
    double ts = 0;   //!< microseconds on the tracer clock
    double dur = 0;  //!< microseconds
    std::uint32_t tid = 0;
    /** "batch" argument, when the span carries one. */
    std::int64_t batch = -1;
    /** Index of the outermost enclosing span (itself for roots); -1 for
     *  pool chunks. */
    std::int64_t root = -1;
    double selfUs = 0;
};

/**
 * The tracer's wall-clock spans starting at or after @p from_us, with
 * root and self time resolved (pool chunks keep self == duration).
 */
std::vector<Span> foldTrace(const hnlpu::obs::Tracer &tracer,
                            double from_us);

/** Count, summed duration and summed self time of one span name. */
struct NameTotals
{
    std::size_t count = 0;
    double durUs = 0;
    double selfUs = 0;
};

/** Per-name totals over the spans whose root is named in @p roots. */
std::map<std::string, NameTotals>
totalsUnder(const std::vector<Span> &spans,
            const std::vector<std::string> &roots);

} // namespace hnbench

#endif // HNBENCH_FOLD_HH
