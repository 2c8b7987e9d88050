/**
 * @file
 * A real mtvd process under the benchmark's control: spawned from the
 * Release build, probed until it answers `ping`, read for its peak
 * resident set, and shut down (then reaped) before the run ends.
 */

#ifndef MTVBENCH_DAEMON_HH
#define MTVBENCH_DAEMON_HH

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace bench
{

class Daemon
{
  public:
    /**
     * Spawn `mtvd --socket SOCKET --quiet ARGS...` with stdout and
     * stderr appended to @p logPath. Returns null (with @p error set)
     * when the process cannot be started.
     */
    static std::unique_ptr<Daemon>
    spawn(const std::string &mtvd, const std::string &socket,
          const std::vector<std::string> &args,
          const std::string &logPath, std::string *error);

    /** Stops the daemon if still running (see stop()). */
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** True once a `ping` on a fresh connection was answered ok. */
    bool ping() const;

    /** False once the process has exited (it is then reaped). */
    bool alive();

    /** VmHWM of the process in KiB, from /proc (0 when unreadable). */
    uint64_t peakRssKb() const;

    /**
     * Ask the daemon to shut down, wait for it to exit (escalating to
     * SIGTERM, then SIGKILL, when it does not), and reap it. Returns
     * true when it exited on its own with status 0.
     */
    bool stop();

  private:
    Daemon(pid_t pid, std::string socket)
        : pid_(pid), socket_(std::move(socket))
    {
    }

    /** Wait up to @p seconds for exit; true when reaped. */
    bool waitExit(double seconds, int *status);

    pid_t pid_ = -1;
    std::string socket_;
};

/**
 * Poll every daemon of @p daemons with `ping` until all answer, or
 * @p timeoutS passes. Returns false on timeout or when one exits.
 */
bool waitAllReady(const std::vector<Daemon *> &daemons, double timeoutS);

} // namespace bench

#endif // MTVBENCH_DAEMON_HH
