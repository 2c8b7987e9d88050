/**
 * @file
 * mtvbench — the repo's end-to-end benchmark binary. Starts real mtvd
 * processes from this (Release) build, drives them from this one
 * process, checks every result, and prints one JSON result line.
 *
 * Usage (from the repository root; perfbench/run.py builds and calls
 * it):
 *   mtvbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *   mtvbench --pin      recompute perfbench/pinned_digests.json
 *
 * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
 * ones. Informational lines start with '#'; the result is the last
 * line of standard output.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/common/logging.hh"
#include "src/workloads.hh"

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: mtvbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1]\n"
                 "       mtvbench --pin\n");
    return 2;
}

/** A JSON number with all its digits (non-finite values have none:
 *  an unbounded latency prints as 1e300, NaN as 0). */
std::string
number(double value)
{
    if (std::isnan(value))
        value = 0;
    if (std::isinf(value))
        value = value > 0 ? 1e300 : -1e300;
    char text[40];
    std::snprintf(text, sizeof(text), "%.17g", value);
    return text;
}

std::string
quoted(const std::string &text)
{
    return "\"" + text + "\"";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace bench;

    if (std::strcmp(MTVBENCH_BUILD_TYPE, "Release") != 0) {
        std::fprintf(stderr,
                     "mtvbench: refusing to measure a %s build; "
                     "configure with -DCMAKE_BUILD_TYPE=Release\n",
                     MTVBENCH_BUILD_TYPE);
        return 2;
    }

    Options options;
    options.mtvd = MTVBENCH_MTVD;
    options.pinFile = "perfbench/pinned_digests.json";
    bool pin = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "mtvbench: %s needs a value\n",
                             arg.c_str());
                std::exit(usage());
            }
            return argv[++i];
        };
        if (arg == "--workload") {
            options.workload = value();
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(value().c_str(), nullptr);
        } else if (arg == "--trace") {
            options.trace = value() == "1";
        } else if (arg == "--pin") {
            pin = true;
        } else {
            std::fprintf(stderr, "mtvbench: unknown argument '%s'\n",
                         arg.c_str());
            return usage();
        }
    }
    if (pin)
        return pinDigests(options);

    bool known = false;
    for (const std::string &name : workloadNames())
        known = known || name == options.workload;
    if (!known || !(options.seconds > 0)) {
        std::fprintf(stderr, "mtvbench: unknown workload '%s' or bad "
                             "--seconds\n",
                     options.workload.c_str());
        return usage();
    }
    options.runDir = ".bench_run/" + options.workload;
    // Library warnings (e.g. a daemon's store notices) are not
    // results; keep stdout for the result line.
    mtv::setLogLevel(mtv::LogLevel::Quiet);

    const Outcome out = runWorkload(options);

    std::string info = "# " + options.workload + " " +
                       (options.trace ? "traced" : "untraced") +
                       " seed=" + std::to_string(options.seed) +
                       " build=" MTVBENCH_BUILD_TYPE
                       " compiler=\"" MTVBENCH_COMPILER "\"";
    for (const auto &item : out.info)
        info += " " + item.first + "=" + number(item.second);
    std::printf("%s\n", info.c_str());

    std::string line = "{\"correct\": ";
    line += out.checksOk && out.failed == 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(out.attempted);
    line += ", \"failed\": " + std::to_string(out.failed);
    line += ", \"metrics\": {";
    bool first = true;
    for (const auto &metric : out.metrics) {
        line += first ? "" : ", ";
        first = false;
        line += quoted(metric.first) + ": {\"value\": " +
                number(metric.second.first) +
                ", \"unit\": " + quoted(metric.second.second) + "}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return 0;
}
