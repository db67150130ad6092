// A gcr-server daemon process owned by the benchmark: spawned with an
// explicit configuration and a scrubbed environment, stopped with SIGTERM,
// and always reaped.
#pragma once

#include <memory>
#include <string>

namespace perfbench {

class Daemon {
 public:
  /// Spawn `binary --socket <socket> --threads <threads> --cache-dir
  /// <storeDir>` with every GCR_* variable removed from its environment and
  /// its output appended to `logPath`; returns once the socket accepts
  /// connections.  nullptr (and *error) when it does not come up.
  static std::unique_ptr<Daemon> start(const std::string& binary,
                                       const std::string& socket,
                                       const std::string& storeDir,
                                       int threads,
                                       const std::string& logPath,
                                       std::string* error);

  /// Kills and reaps the process if stop() was not called.
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// SIGTERM (graceful drain) and wait; true when it exited with status 0.
  bool stop();

  /// The daemon's peak resident set so far (VmHWM), in MiB.
  double peakRssMb() const;

  const std::string& socket() const { return socket_; }

 private:
  Daemon(int pid, std::string socket) : pid_(pid), socket_(std::move(socket)) {}

  int pid_;
  std::string socket_;
};

}  // namespace perfbench
