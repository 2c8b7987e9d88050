#include "src/daemon.hh"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <thread>

#include "src/bench.hh"
#include "src/service/json.hh"
#include "src/service/protocol.hh"

extern char **environ;

namespace bench
{

std::unique_ptr<Daemon>
Daemon::spawn(const std::string &mtvd, const std::string &socket,
              const std::vector<std::string> &args,
              const std::string &logPath, std::string *error)
{
    std::vector<std::string> argvStrings = {mtvd, "--socket", socket,
                                            "--quiet"};
    argvStrings.insert(argvStrings.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (std::string &arg : argvStrings)
        argv.push_back(arg.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, logPath.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND,
                                     0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY,
                                     0);
    pid_t pid = -1;
    const int rc = posix_spawn(&pid, mtvd.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
        *error = "cannot spawn " + mtvd + ": " + std::strerror(rc);
        return nullptr;
    }
    return std::unique_ptr<Daemon>(new Daemon(pid, socket));
}

Daemon::~Daemon()
{
    stop();
}

bool
Daemon::ping() const
{
    std::string error;
    const int fd = mtv::connectToDaemon(socket_, &error);
    if (fd < 0)
        return false;
    mtv::LineChannel channel(fd);
    std::string line;
    if (!channel.writeLine("{\"op\":\"ping\"}") ||
        !channel.readLine(&line)) {
        return false;
    }
    mtv::Json response;
    std::string parseError;
    return mtv::Json::parse(line, &response, &parseError) &&
           response.getBool("ok", false);
}

bool
Daemon::alive()
{
    int status = 0;
    return pid_ >= 0 && !waitExit(0.0, &status);
}

uint64_t
Daemon::peakRssKb() const
{
    if (pid_ < 0)
        return 0;
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
    return 0;
}

bool
Daemon::waitExit(double seconds, int *status)
{
    const double deadline = nowS() + seconds;
    for (;;) {
        const pid_t r = waitpid(pid_, status, WNOHANG);
        if (r == pid_ || r < 0) {
            pid_ = -1;
            return true;
        }
        if (nowS() > deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

bool
Daemon::stop()
{
    if (pid_ < 0)
        return true;
    int status = 0;
    std::string error;
    const int fd = mtv::connectToDaemon(socket_, &error);
    if (fd >= 0) {
        mtv::LineChannel channel(fd);
        std::string line;
        if (channel.writeLine("{\"op\":\"shutdown\"}"))
            channel.readLine(&line);
    }
    if (waitExit(20.0, &status))
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    kill(pid_, SIGTERM);
    if (waitExit(5.0, &status))
        return false;
    kill(pid_, SIGKILL);
    waitExit(60.0, &status);
    return false;
}

bool
waitAllReady(const std::vector<Daemon *> &daemons, double timeoutS)
{
    const double deadline = nowS() + timeoutS;
    std::vector<bool> ready(daemons.size(), false);
    for (;;) {
        bool all = true;
        for (size_t i = 0; i < daemons.size(); ++i) {
            if (!ready[i] && !daemons[i]->alive())
                return false;
            if (!ready[i])
                ready[i] = daemons[i]->ping();
            all = all && ready[i];
        }
        if (all)
            return true;
        if (nowS() > deadline)
            return false;
        // Short polls: a daemon that is up within milliseconds must not
        // have its set-up time rounded up to the poll interval.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
}

} // namespace bench
