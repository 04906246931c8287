//===- Transport.cpp - Server transports (stdio, socket client) ----------------==//

#include "server/Transport.h"

#include "server/QueryServer.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

// macOS has no MSG_NOSIGNAL; writes there can raise SIGPIPE on a closed
// peer, which the CLI ignores process-wide instead.
#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

using namespace tmw;

int server::serveStdio(QueryServer &S) {
  S.serveStream(std::cin, std::cout);
  return 0;
}

namespace {

int failSys(const char *What, const std::string &Path) {
  std::fprintf(stderr, "error: %s %s: %s\n", What, Path.c_str(),
               std::strerror(errno));
  return 1;
}

bool setNonBlocking(int Fd) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  return Flags >= 0 && ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) == 0;
}

} // namespace

int server::runClient(const std::string &Path, std::istream &In,
                      std::ostream &Out) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    std::fprintf(stderr, "error: socket path too long (max %zu): %s\n",
                 sizeof(Addr.sun_path) - 1, Path.c_str());
    return 1;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);

  // Retry the connect briefly: the common CI shape starts the server in
  // the background and fans clients out immediately, racing the bind.
  int Fd = -1;
  for (int Try = 0; Try < 200; ++Try) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return failSys("socket", Path);
    int Rc;
    do {
      Rc = ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr));
    } while (Rc < 0 && errno == EINTR);
    if (Rc == 0)
      break;
    ::close(Fd);
    Fd = -1;
    if (errno != ENOENT && errno != ECONNREFUSED)
      return failSys("connect", Path);
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  if (Fd < 0) {
    std::fprintf(stderr, "error: connect %s: server never came up\n",
                 Path.c_str());
    return 1;
  }

  // Send every input line as one batch and stream the verdict documents
  // back until the server is done with us — *interleaved*, never
  // write-everything-then-read. The multiplexer bounds a connection's
  // pending output (`OutputHighWater`) and stops reading until the client
  // drains, so a client that sits on its responses while it still has
  // input to push deadlocks both sides once the kernel socket buffers
  // fill: the classic pipe deadlock. Polling both directions and
  // draining responses while sending makes progress at any input size.
  if (!setNonBlocking(Fd)) {
    ::close(Fd);
    return failSys("fcntl", Path);
  }
  std::string Pending; // input lines queued for the wire
  std::string Line;
  bool InEof = false, SentEof = false;
  char Chunk[65536];
  for (;;) {
    // Keep a bounded slice of the input queued; half-close once the
    // last byte is on the wire so the server sees EOF and finishes.
    while (!InEof && Pending.size() < (1u << 20)) {
      if (!std::getline(In, Line)) {
        InEof = true;
        break;
      }
      Pending += Line;
      Pending += '\n';
    }
    if (InEof && Pending.empty() && !SentEof) {
      ::shutdown(Fd, SHUT_WR);
      SentEof = true;
    }

    pollfd P{Fd, POLLIN, 0};
    if (!Pending.empty())
      P.events |= POLLOUT;
    if (::poll(&P, 1, -1) < 0) {
      if (errno == EINTR)
        continue;
      ::close(Fd);
      return failSys("poll", Path);
    }

    if (P.revents & POLLOUT) {
      size_t Off = 0;
      while (Off < Pending.size()) {
        ssize_t N = ::send(Fd, Pending.data() + Off, Pending.size() - Off,
                           MSG_NOSIGNAL);
        if (N < 0) {
          if (errno == EINTR)
            continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
          ::close(Fd);
          return failSys("send", Path);
        }
        Off += static_cast<size_t>(N);
      }
      Pending.erase(0, Off);
    }
    if (P.revents & (POLLIN | POLLERR | POLLHUP)) {
      ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
      if (N < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
          continue;
        ::close(Fd);
        return failSys("read", Path);
      }
      if (N == 0)
        break; // server finished (or rejected the rest of our input)
      Out.write(Chunk, static_cast<std::streamsize>(N));
    }
  }
  Out.flush();
  ::close(Fd);
  return 0;
}
