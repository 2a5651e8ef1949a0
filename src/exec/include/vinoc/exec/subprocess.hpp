// Child-process lifecycle for the sharded campaign supervisor (POSIX).
//
// A ChildProcess is fork+exec with the child's stdout connected to a
// non-blocking pipe the parent polls — the transport for the campaign
// worker's heartbeat/status lines. The interface is deliberately tiny and
// supervisor-shaped:
//
//  * spawn() never throws: a failed fork/exec returns nullptr (the
//    supervisor treats it like an instant crash and applies its respawn
//    policy).
//  * read_available() drains whatever the pipe holds right now into a line
//    buffer; whole lines come back, a trailing partial line waits for more
//    bytes (or for EOF, where it is surfaced as-is so torn tails are seen).
//  * poll_exit() is waitpid(WNOHANG): the child stays a child until it is
//    reaped exactly once. EXITED vs SIGNALED is preserved — the supervisor
//    distinguishes a worker's documented exit codes from a SIGKILL.
//  * signal_now() forwards a signal (cancel propagation: the supervisor
//    relays SIGTERM so workers checkpoint-and-flush like any CLI run).
//
// Destruction of a live child SIGKILLs and reaps it — a supervisor that
// throws never leaks worker processes.
#pragma once

#include <memory>
#include <string>
#include <vector>

namespace vinoc::exec {

class ChildProcess {
 public:
  /// Forks and execs `argv` (argv[0] = executable path), child stdout ->
  /// pipe, stderr/stdin inherited. The child inherits the environment, with
  /// `extra_env` entries ("NAME=value") added or replacing an inherited
  /// NAME. Returns nullptr on fork/exec failure.
  static std::unique_ptr<ChildProcess> spawn(
      const std::vector<std::string>& argv,
      const std::vector<std::string>& extra_env = {});

  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  [[nodiscard]] int pid() const { return pid_; }
  /// Read end of the child's stdout pipe (for poll(2) in the supervisor).
  [[nodiscard]] int stdout_fd() const { return out_fd_; }

  /// Drains available pipe bytes (non-blocking) and appends completed lines
  /// to `lines`. Returns false once the pipe is at EOF and fully drained —
  /// any unterminated tail is flushed as a final line first (the decoder's
  /// checksum rejects it if torn).
  bool read_available(std::vector<std::string>& lines);

  /// True when the child has terminated AND been reaped; exit_code() /
  /// term_signal() are then valid. Non-blocking.
  bool poll_exit();
  /// Blocks until the child exits and reaps it, retrying on EINTR (the
  /// destructor reaps a killed child this way).
  void wait_exit();

  /// Exit status of a reaped child: exit code for a normal exit, or -1 when
  /// it died to a signal (see term_signal()).
  [[nodiscard]] int exit_code() const { return exit_code_; }
  /// Terminating signal, 0 for a normal exit.
  [[nodiscard]] int term_signal() const { return term_signal_; }

  /// Sends `sig` (e.g. SIGTERM for graceful cancel, SIGKILL to reclaim a
  /// stalled worker). No-op once the child is reaped.
  void signal_now(int sig);

 private:
  ChildProcess(int pid, int out_fd) : pid_(pid), out_fd_(out_fd) {}

  int pid_ = -1;
  int out_fd_ = -1;
  bool reaped_ = false;
  bool eof_ = false;
  int exit_code_ = -1;
  int term_signal_ = 0;
  std::string buffer_;  ///< bytes after the last complete line
};

}  // namespace vinoc::exec
