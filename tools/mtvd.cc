/**
 * @file
 * mtvd — the experiment daemon: an ExperimentEngine behind a unix
 * socket (and optionally a TCP endpoint), optionally warm-started
 * from (and writing through to) a persistent on-disk result store,
 * shared by any number of mtvctl / protocol clients.
 *
 * Usage:
 *   mtvd [--socket PATH] [--tcp HOST:PORT] [--store DIR] [--shards N]
 *        [--workers N] [--cache-cap N]
 *        [--kernel stepped|batched] [--quiet]
 *   mtvd --route EP1,EP2,... [--socket PATH] [--tcp HOST:PORT]
 *        [--quiet]
 *
 * --tcp adds a TCP listener next to the unix socket (same protocol;
 * the fleet transport). --tcp-ephemeral HOST binds a kernel-chosen
 * port instead — tests and the fleet smoke script read it back from
 * the startup line. --kernel selects the simulation kernel (the two
 * are bit-identical; the default, batched, runs each point through
 * the fast lane, and stepped is the cycle-by-cycle reference).
 * --route turns this mtvd into a thin fleet router over the listed
 * node endpoints ("HOST:PORT" or socket paths): it owns no engine,
 * so the engine flags (--store, --shards, --workers, --cache-cap,
 * --kernel) are rejected in route mode.
 *
 * Defaults: socket $MTV_SOCKET or /tmp/mtvd.sock; no store (results
 * die with the daemon — pass --store to persist; --shards sets the
 * hash-partition count of a *fresh* store, existing stores keep
 * theirs); one worker per hardware thread; unbounded memory cache;
 * the batched kernel.
 * Runs in the foreground (use your service manager or `&` to
 * daemonize); SIGINT/SIGTERM shut it down cleanly.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "src/common/logging.hh"
#include "src/common/strutil.hh"
#include "src/fleet/fleet_service.hh"
#include "src/service/server.hh"

namespace
{

/**
 * Serve until SIGINT/SIGTERM (stop() is async-signal-safe) or a
 * client's shutdown request.
 */
template <typename Service>
int
serveUntilStopped(Service &service)
{
    static Service *running = nullptr;
    running = &service;
    const auto onSignal = [](int) {
        if (running)
            running->stop();
    };
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGPIPE, SIG_IGN);
    service.serve();
    running = nullptr;
    mtv::inform("mtvd: stopped");
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: mtvd [--socket PATH] [--tcp HOST:PORT] "
                 "[--store DIR] [--shards N] [--workers N] "
                 "[--cache-cap N] [--kernel stepped|batched] "
                 "[--quiet]\n"
                 "       (--kernel defaults to batched)\n"
                 "       mtvd --route EP1,EP2,... [--socket PATH] "
                 "[--tcp HOST:PORT] [--quiet]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mtv;

    // Daemon log lines carry monotonic timestamps so multi-process
    // logs (fleet nodes + router) correlate by time; startup-line
    // greps stay substring-based, so the prefix is transparent.
    setLogTimestamps(true);

    ServiceOptions options;
    std::vector<std::string> routeNodes;
    bool engineFlagSeen = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("missing value for %s", arg.c_str());
            return argv[++i];
        };
        // Numeric flags parse strictly: "--workers abc" or a negative
        // "--cache-cap" must fatal(), not atoi/atoll-wrap into 0 (a
        // silent hardware-concurrency fallback) or SIZE_MAX (an
        // operator who thinks the cache is bounded gets an unbounded
        // one). --tcp parses HOST:PORT the same way — "host:abc"
        // dies loudly instead of listening on a surprise port.
        if (arg == "--socket") {
            options.socketPath = value();
        } else if (arg == "--tcp") {
            const HostPort hp = parseHostPort(value(), "--tcp");
            options.tcpHost = hp.host;
            options.tcpPort = hp.port;
        } else if (arg == "--tcp-ephemeral") {
            // Bind port 0 (kernel-chosen); tests and the fleet smoke
            // script read the port back from the startup line.
            options.tcpHost = value();
            options.tcpPort = 0;
        } else if (arg == "--route") {
            for (const std::string &node : split(value(), ',')) {
                if (!node.empty())
                    routeNodes.push_back(node);
            }
            if (routeNodes.empty())
                fatal("--route expects a comma-separated node list");
        } else if (arg == "--store") {
            options.storeDir = value();
            engineFlagSeen = true;
        } else if (arg == "--shards") {
            options.storeShards = static_cast<int>(
                parseIntFlag(value(), "--shards", 0, 1024));
            engineFlagSeen = true;
        } else if (arg == "--workers") {
            options.workers = static_cast<int>(
                parseIntFlag(value(), "--workers", 0, 4096));
            engineFlagSeen = true;
        } else if (arg == "--cache-cap") {
            options.maxCacheEntries = static_cast<size_t>(
                parseIntFlag(value(), "--cache-cap", 0,
                             std::numeric_limits<long long>::max()));
            engineFlagSeen = true;
        } else if (arg == "--kernel") {
            const std::string name = value();
            if (name == "stepped") {
                options.kernel = SimKernel::Stepped;
            } else if (name == "batched") {
                options.kernel = SimKernel::Batched;
            } else {
                std::fprintf(stderr,
                             "mtvd: --kernel wants stepped|batched, "
                             "got '%s'\n",
                             name.c_str());
                return usage();
            }
            engineFlagSeen = true;
        } else if (arg == "--quiet") {
            setLogLevel(LogLevel::Quiet);
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "mtvd: unknown argument '%s'\n",
                         arg.c_str());
            return usage();
        }
    }

    if (!routeNodes.empty()) {
        if (engineFlagSeen) {
            fatal("--route owns no engine: --store/--shards/"
                  "--workers/--cache-cap/--kernel do not apply (set "
                  "them on the nodes)");
        }
        FleetServiceOptions fleetOptions;
        static_cast<ListenOptions &>(fleetOptions) = options;
        fleetOptions.nodes = routeNodes;
        FleetService service(fleetOptions);
        return serveUntilStopped(service);
    }

    MtvService service(options);
    if (service.store()) {
        const ResultStore::Stats s = service.store()->stats();
        inform("mtvd: store '%s' warm with %llu results "
               "(%zu shards, %zu segments, %zu stale, %llu dropped)",
               service.store()->directory().c_str(),
               static_cast<unsigned long long>(
                   service.store()->size()),
               s.shards, s.segments, s.staleSegments,
               static_cast<unsigned long long>(s.droppedRecords));
    }
    return serveUntilStopped(service);
}
