#include "daemon.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "server/protocol.hpp"
#include "stats.hpp"

extern char** environ;

namespace perfbench {

std::unique_ptr<Daemon> Daemon::start(const std::string& binary,
                                      const std::string& socket,
                                      const std::string& storeDir,
                                      int threads, const std::string& logPath,
                                      std::string* error) {
  const std::string threadArg = std::to_string(threads);
  std::vector<const char*> argv = {binary.c_str(),    "--socket",
                                   socket.c_str(),    "--threads",
                                   threadArg.c_str(), "--cache-dir",
                                   storeDir.c_str(),  nullptr};
  std::vector<const char*> env;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "GCR_", 4) != 0) env.push_back(*e);
  env.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = "fork failed";
    return nullptr;
  }
  if (pid == 0) {
    const int log = ::open(logPath.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                           0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
      ::close(log);
    }
    ::execve(binary.c_str(), const_cast<char* const*>(argv.data()),
             const_cast<char* const*>(env.data()));
    ::_exit(127);
  }

  std::unique_ptr<Daemon> d(new Daemon(pid, socket));
  const double deadline = now() + 20.0;
  while (now() < deadline) {
    const int fd = gcr::server::connectAddress(socket);
    if (fd >= 0) {
      ::close(fd);
      return d;
    }
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      d->pid_ = -1;
      *error = binary + " exited before listening (see " + logPath + ")";
      return nullptr;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  *error = binary + " did not listen on " + socket + " within 20 s";
  return nullptr;  // ~Daemon kills and reaps it
}

Daemon::~Daemon() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
}

bool Daemon::stop() {
  if (pid_ <= 0) return false;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const bool reaped = ::waitpid(pid_, &status, 0) == pid_;
  pid_ = -1;
  return reaped && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

double Daemon::peakRssMb() const {
  return pid_ > 0 ? perfbench::peakRssMb(pid_) : 0.0;
}

}  // namespace perfbench
