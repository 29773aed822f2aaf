#include <poll.h>
#include <spawn.h>
#include <unistd.h>

#include <stdexcept>

#include "bench.h"

extern char** environ;

namespace perfbench {

Spawned spawn_reader(std::vector<std::string> args, int timeout_ms) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&fa, fds[0]);
  posix_spawn_file_actions_addclose(&fa, fds[1]);
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  Spawned child;
  const int rc = posix_spawn(&child.pid, args[0].c_str(), &fa, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    throw std::runtime_error("cannot launch " + args[0]);
  }
  child.out_fd = fds[0];
  std::string& line = child.first_line;
  pollfd p{child.out_fd, POLLIN, 0};
  char buf[256];
  while (line.find('\n') == std::string::npos &&
         ::poll(&p, 1, timeout_ms) > 0) {
    const ssize_t n = ::read(child.out_fd, buf, sizeof buf);
    if (n <= 0) break;
    line.append(buf, static_cast<std::size_t>(n));
  }
  line = line.substr(0, line.find('\n'));
  return child;
}

}  // namespace perfbench
