#pragma once
// Forked workers reporting to their parent over pipes, for the forked
// executor exec=rt-udp. Frames are raw bytes: both ends are the same binary
// on the same machine, so values round-trip bit-exactly. POSIX only.

#include <cstddef>
#include <functional>
#include <string>

namespace ct::support {

/// Writes all `n` bytes, retrying on EINTR and short writes; false on error.
bool write_all(int fd, const void* data, std::size_t n);

/// Reads exactly `n` bytes, retrying on EINTR and short reads; false on
/// error or on EOF before the frame completed (a dead writer).
bool read_all(int fd, void* data, std::size_t n);

/// Forks worker k in [0, n) to run `work(k, fd)`, which writes its frame to
/// the pipe `fd`; it _exits (no atexit handler or static destructor shared
/// with the parent) with 0 when `work` returned true. The parent calls
/// `read(k, fd)` in k order, then reaps every worker. Returns how many were
/// forked; the first failure (pipe, fork, short frame, abnormal exit) lands
/// in `error`.
std::size_t fork_workers(std::size_t n, const std::function<bool(std::size_t, int)>& work,
                         const std::function<bool(std::size_t, int)>& read,
                         std::string& error);

}  // namespace ct::support
