/**
 * @file
 * Shared helpers for the reproduction drivers: banners,
 * paper-vs-measured rows and the shared CLI argument parser, so every
 * bench prints in a uniform format and parses flags the same way.
 * Serving benches draw their traces from expt/workload.hh.
 */

#ifndef HNLPU_BENCH_BENCH_UTIL_HH
#define HNLPU_BENCH_BENCH_UTIL_HH

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/table.hh"
#include "common/units.hh"
#include "obs/json.hh"

namespace hnlpu::bench {

/** Print a section banner. */
inline void
banner(const std::string &title)
{
    std::printf("\n=== %s ===\n\n", title.c_str());
}

/**
 * Write a completed obs::JsonWriter document to @p path with a trailing
 * newline.  Prints to stderr and returns false on I/O failure; on
 * success announces the file like every BENCH_*.json emitter does.
 */
inline bool
writeJsonFile(const std::string &path, const obs::JsonWriter &writer,
              const std::string &what)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    const std::string body = writer.str();
    std::fwrite(body.data(), 1, body.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("\nwrote %s (%s)\n", path.c_str(), what.c_str());
    return true;
}

/**
 * The shared bench command line: the flags every driver understands,
 * plus whatever positional arguments the individual bench documents
 * (kept for script compatibility -- scripts/tier1.sh passes
 * positionals).  Unknown `--flags` are a hard usage error, so a typo
 * can't silently fall through as a positional.
 *
 *   --trace <path>     Chrome-trace output (benches that support it)
 *   --smoke            tiny-run mode (CI / tier-1)
 *   --threads <n>      worker threads override (0 = bench default)
 *   --json-out <path>  overrides the bench's JSON output path
 *   --config <file>    experiment/config JSON (parsed on demand via
 *                      obs::JsonReader, which is fatal with line and
 *                      column on malformed input)
 */
struct BenchArgs
{
    std::string tracePath;
    bool smoke = false;
    std::size_t threads = 0;
    std::string jsonOut;
    std::string configPath;
    std::vector<std::string> positional;

    /** Parse argv; exits with a usage message on a bad flag. */
    static BenchArgs
    parse(int argc, char **argv)
    {
        BenchArgs args;
        for (int i = 1; i < argc; ++i) {
            const char *arg = argv[i];
            auto needValue = [&](const char *flag) -> const char * {
                if (i + 1 >= argc) {
                    std::fprintf(stderr, "%s needs a value\n", flag);
                    std::exit(2);
                }
                return argv[++i];
            };
            if (std::strcmp(arg, "--trace") == 0) {
                args.tracePath = needValue("--trace");
            } else if (std::strcmp(arg, "--smoke") == 0) {
                args.smoke = true;
            } else if (std::strcmp(arg, "--threads") == 0) {
                args.threads =
                    std::strtoul(needValue("--threads"), nullptr, 10);
            } else if (std::strcmp(arg, "--json-out") == 0) {
                args.jsonOut = needValue("--json-out");
            } else if (std::strcmp(arg, "--config") == 0) {
                args.configPath = needValue("--config");
            } else if (std::strncmp(arg, "--", 2) == 0) {
                std::fprintf(stderr, "unknown flag %s\n", arg);
                std::exit(2);
            } else {
                args.positional.push_back(arg);
            }
        }
        return args;
    }

    /** Positional @p index as an unsigned, or @p fallback. */
    std::size_t
    positionalUint(std::size_t index, std::size_t fallback) const
    {
        if (index >= positional.size())
            return fallback;
        return std::strtoul(positional[index].c_str(), nullptr, 10);
    }

    /** Positional @p index as a string, or @p fallback. */
    std::string
    positionalStr(std::size_t index, const std::string &fallback) const
    {
        return index < positional.size() ? positional[index] : fallback;
    }

    /**
     * The bench's JSON output path: --json-out wins, then the
     * historical positional at @p index, then @p fallback.
     */
    std::string
    jsonPath(std::size_t index, const std::string &fallback) const
    {
        if (!jsonOut.empty())
            return jsonOut;
        return positionalStr(index, fallback);
    }
};

/** Relative deviation as a +x.x% string. */
inline std::string
deviation(double measured, double paper)
{
    if (paper == 0.0)
        return "n/a";
    const double dev = (measured - paper) / paper * 100.0;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%+.1f%%", dev);
    return buf;
}

} // namespace hnlpu::bench

#endif // HNLPU_BENCH_BENCH_UTIL_HH
