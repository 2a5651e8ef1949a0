#include "vinoc/exec/subprocess.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <string_view>

namespace vinoc::exec {

namespace {

/// "NAME" of a "NAME=value" environment entry.
std::string_view env_name(std::string_view entry) {
  return entry.substr(0, entry.find('='));
}

}  // namespace

std::unique_ptr<ChildProcess> ChildProcess::spawn(
    const std::vector<std::string>& argv,
    const std::vector<std::string>& extra_env) {
  if (argv.empty()) return nullptr;
  // argv and envp are built here, before fork: between fork and exec the
  // child may make only async-signal-safe calls, since the parent may be
  // multi-threaded and another thread may hold the malloc lock.
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  // The parent's environment minus every NAME that extra_env sets, then
  // extra_env.
  std::vector<char*> cenv;
  for (char** e = environ; *e != nullptr; ++e) {
    const bool replaced =
        std::any_of(extra_env.begin(), extra_env.end(), [e](const std::string& x) {
          return env_name(x) == env_name(*e);
        });
    if (!replaced) cenv.push_back(*e);
  }
  for (const std::string& x : extra_env) cenv.push_back(const_cast<char*>(x.c_str()));
  cenv.push_back(nullptr);

  int fds[2];
  if (::pipe(fds) != 0) return nullptr;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return nullptr;
  }
  if (pid == 0) {
    // Child: stdout -> pipe write end, then exec.
    ::close(fds[0]);
    if (::dup2(fds[1], STDOUT_FILENO) < 0) ::_exit(127);
    ::close(fds[1]);
    ::execve(cargv[0], cargv.data(), cenv.data());
    ::_exit(127);  // exec failed
  }
  ::close(fds[1]);
  ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
  return std::unique_ptr<ChildProcess>(new ChildProcess(pid, fds[0]));
}

ChildProcess::~ChildProcess() {
  if (!reaped_) {
    ::kill(pid_, SIGKILL);
    wait_exit();
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

bool ChildProcess::read_available(std::vector<std::string>& lines) {
  char chunk[4096];
  while (!eof_) {
    const ssize_t n = ::read(out_fd_, chunk, sizeof chunk);
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      eof_ = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    eof_ = true;  // pipe error: treat as EOF
    break;
  }
  std::size_t pos = 0;
  for (std::size_t nl = buffer_.find('\n', pos); nl != std::string::npos;
       nl = buffer_.find('\n', pos)) {
    lines.push_back(buffer_.substr(pos, nl - pos));
    pos = nl + 1;
  }
  buffer_.erase(0, pos);
  if (eof_) {
    if (!buffer_.empty()) {
      lines.push_back(buffer_);  // torn tail: the decoder will reject it
      buffer_.clear();
    }
    return false;
  }
  return true;
}

bool ChildProcess::poll_exit() {
  if (reaped_) return true;
  int status = 0;
  const pid_t r = ::waitpid(pid_, &status, WNOHANG);
  if (r != pid_) return false;
  reaped_ = true;
  if (WIFSIGNALED(status)) {
    term_signal_ = WTERMSIG(status);
    exit_code_ = -1;
  } else {
    exit_code_ = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  return true;
}

void ChildProcess::wait_exit() {
  if (reaped_) return;
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  reaped_ = true;
  if (WIFSIGNALED(status)) {
    term_signal_ = WTERMSIG(status);
    exit_code_ = -1;
  } else {
    exit_code_ = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
}

void ChildProcess::signal_now(int sig) {
  if (!reaped_) ::kill(pid_, sig);
}

}  // namespace vinoc::exec
