#include "support/pipe_io.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <vector>

namespace ct::support {

namespace {

/// Moves all `n` bytes through `io` (::read or ::write), retrying on EINTR
/// and short transfers.
template <class Byte, class Io>
bool transfer_all(int fd, Byte* p, std::size_t n, Io io) {
  while (n > 0) {
    const ssize_t done = io(fd, p, n);
    if (done <= 0) {
      if (done < 0 && errno == EINTR) continue;
      return false;  // an error, or EOF before the frame completed = dead writer
    }
    p += done;
    n -= static_cast<std::size_t>(done);
  }
  return true;
}

}  // namespace

bool write_all(int fd, const void* data, std::size_t n) {
  return transfer_all(fd, static_cast<const char*>(data), n, ::write);
}

bool read_all(int fd, void* data, std::size_t n) {
  return transfer_all(fd, static_cast<char*>(data), n, ::read);
}

std::size_t fork_workers(std::size_t n, const std::function<bool(std::size_t, int)>& work,
                         const std::function<bool(std::size_t, int)>& read,
                         std::string& error) {
  struct Worker {
    pid_t pid;
    int read_fd;
  };
  std::vector<Worker> spawned;
  for (std::size_t k = 0; k < n; ++k) {
    int fds[2];
    if (::pipe(fds) != 0) {
      error = "pipe() failed";
      break;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      error = "fork() failed";
      break;
    }
    if (pid == 0) {
      ::close(fds[0]);
      const bool ok = work(k, fds[1]);
      ::close(fds[1]);
      ::_exit(ok ? 0 : 1);
    }
    ::close(fds[1]);
    spawned.push_back(Worker{pid, fds[0]});
  }
  for (std::size_t k = 0; k < spawned.size(); ++k) {
    if (!read(k, spawned[k].read_fd) && error.empty()) {
      error = "worker " + std::to_string(k) + " died before reporting";
    }
    ::close(spawned[k].read_fd);
  }
  for (const Worker& worker : spawned) {
    int status = 0;
    ::waitpid(worker.pid, &status, 0);
    if (error.empty() && !(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
      error = "worker exited abnormally";
    }
  }
  return spawned.size();
}

}  // namespace ct::support
