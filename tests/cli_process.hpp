// Runs the real vinoc CLI (VINOC_CLI_PATH) as a child process, for tests
// that check its exit status on hostile inputs. POSIX only.
#pragma once

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <string>
#include <vector>

namespace vinoc::test_support {

/// Runs `VINOC_CLI_PATH args...` with stdout and stderr discarded and at
/// most `cpu_seconds` of CPU time (a runaway child dies of SIGXCPU instead
/// of hanging the test). Returns the raw wait status, or -1 when the child
/// could not be started.
inline int run_cli(const std::vector<std::string>& args, int cpu_seconds = 60) {
  std::vector<char*> argv;
  std::string exe = VINOC_CLI_PATH;
  argv.push_back(exe.data());
  std::vector<std::string> owned = args;
  for (std::string& a : owned) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    const int devnull = open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      dup2(devnull, STDOUT_FILENO);
      dup2(devnull, STDERR_FILENO);
    }
    const rlimit cpu{static_cast<rlim_t>(cpu_seconds),
                     static_cast<rlim_t>(cpu_seconds)};
    setrlimit(RLIMIT_CPU, &cpu);
    execv(argv[0], argv.data());
    _exit(127);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
  }
  return status;
}

/// "" when `status` is a normal exit with one of the codes the CLI
/// documents for a finished run on bad or hard input — 0 (ok), 3 (does not
/// parse), 4 (semantically invalid), 5 (infeasible) or 6 (partial campaign)
/// — otherwise a description of what happened instead.
inline std::string undocumented_exit(int status) {
  if (status == -1) return "could not start the CLI";
  if (WIFSIGNALED(status)) return "killed by signal " + std::to_string(WTERMSIG(status));
  if (!WIFEXITED(status)) return "did not exit";
  const int code = WEXITSTATUS(status);
  if (code == 0 || (code >= 3 && code <= 6)) return "";
  return "exit code " + std::to_string(code);
}

}  // namespace vinoc::test_support
