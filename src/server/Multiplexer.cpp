//===- Multiplexer.cpp - Poll-based concurrent connection multiplexer ----------==//

#include "server/Multiplexer.h"

#include "query/QueryIO.h"
#include "server/QueryServer.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <unordered_map>

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
using namespace tmw::server;

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

/// A completed batch document travelling from a pool worker back to the
/// loop thread.
struct DoneDoc {
  uint64_t ConnId = 0;
  uint64_t Seq = 0;
  std::string Doc;
};

/// The worker→loop mailbox. Shared (via shared_ptr) between the loop and
/// every in-flight batch's completion lambda, so a completion can never
/// dangle whatever the shutdown order. The wake write is performed under
/// the lock, against a nonblocking fd the loop retires under the same
/// lock — so no write can race the pipe's closure.
struct Mailbox {
  std::mutex Mu;
  std::vector<DoneDoc> Docs;
  int WakeWr = -1;

  void post(DoneDoc D) {
    std::lock_guard<std::mutex> Lock(Mu);
    Docs.push_back(std::move(D));
    if (WakeWr >= 0) {
      // Nonblocking; a full pipe is fine — earlier bytes already wake
      // the loop.
      [[maybe_unused]] ssize_t N = ::write(WakeWr, "x", 1);
    }
  }

  std::vector<DoneDoc> drain() {
    std::lock_guard<std::mutex> Lock(Mu);
    return std::exchange(Docs, {});
  }

  void retireWake() {
    std::lock_guard<std::mutex> Lock(Mu);
    WakeWr = -1;
  }
};

/// One connection's state machine.
struct Conn {
  int Fd = -1;
  uint64_t Id = 0;

  /// Framing: bytes read but not yet peeled into lines.
  std::string InBuf;
  /// Pending output: one flat buffer with a consumed-prefix offset.
  std::string OutBuf;
  size_t OutOff = 0;

  /// Batch sequencing: every processed line gets the next Seq; documents
  /// append to OutBuf strictly in Seq order, out-of-order completions
  /// wait in `Ready`.
  uint64_t NextSeq = 0;
  uint64_t NextToFlush = 0;
  std::map<uint64_t, std::string> Ready;
  size_t ReadyBytes = 0;
  /// In-flight pool batches of this connection: Seq → server batch id
  /// (for cancellation on disconnect).
  std::map<uint64_t, uint64_t> Live;

  bool ReadClosed = false;
  /// Backpressure: reading (and parsing) paused until output drains.
  bool PausedBP = false;

  MuxConnStats Stats;

  size_t pendingOut() const { return OutBuf.size() - OutOff + ReadyBytes; }
};

} // namespace

/// The event loop proper: all state lives for one `serve` call; the only
/// cross-thread traffic is the Mailbox and the owner's stop flag.
struct ConnectionMultiplexer::Impl {
  ConnectionMultiplexer &Owner;
  QueryServer &Server;
  const MuxOptions &Opts;

  int ListenFd = -1;
  std::string Path;
  std::shared_ptr<Mailbox> Mail;
  std::unordered_map<uint64_t, Conn> Conns;
  uint64_t NextConnId = 0;
  uint64_t Accepted = 0;
  /// Batches submitted whose completion doc has not been drained yet;
  /// the loop exits only at zero, so no completion can outlive it.
  size_t Outstanding = 0;

  explicit Impl(ConnectionMultiplexer &Owner)
      : Owner(Owner), Server(Owner.Server), Opts(Owner.Opts) {}

  bool stopping() const {
    return Owner.StopRequested.load(std::memory_order_relaxed);
  }
  bool acceptingDone() const {
    return stopping() ||
           (Opts.AcceptLimit != 0 && Accepted >= Opts.AcceptLimit);
  }

  unsigned fairnessCap() const {
    return Opts.FairnessCap != 0 ? Opts.FairnessCap : Server.jobs();
  }

  // --- output ------------------------------------------------------------

  /// Append every in-order completed document to the wire buffer.
  void flushReady(Conn &C) {
    auto It = C.Ready.begin();
    while (It != C.Ready.end() && It->first == C.NextToFlush) {
      C.ReadyBytes -= It->second.size();
      C.OutBuf += It->second;
      It = C.Ready.erase(It);
      ++C.NextToFlush;
    }
    C.Stats.PeakBuffered = std::max(C.Stats.PeakBuffered, C.pendingOut());
  }

  /// Drain as much pending output as the socket accepts. Returns false
  /// when the connection died (already aborted).
  bool tryWrite(Conn &C) {
    while (C.OutOff < C.OutBuf.size()) {
      ssize_t N = ::send(C.Fd, C.OutBuf.data() + C.OutOff,
                         C.OutBuf.size() - C.OutOff, MSG_NOSIGNAL);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
          break;
        abortConn(C);
        return false;
      }
      C.OutOff += static_cast<size_t>(N);
      C.Stats.BytesOut += static_cast<uint64_t>(N);
    }
    if (C.OutOff == C.OutBuf.size()) {
      C.OutBuf.clear();
      C.OutOff = 0;
    } else if (C.OutOff > (1u << 20)) {
      C.OutBuf.erase(0, C.OutOff);
      C.OutOff = 0;
    }
    // Backpressure hysteresis: resume reading once drained below half
    // the high-water mark, and catch up on input buffered while paused.
    if (C.PausedBP && C.pendingOut() < Opts.OutputHighWater / 2) {
      C.PausedBP = false;
      processInput(C);
    }
    return true;
  }

  /// A document for (C, Seq) is complete: queue it in order. The actual
  /// socket write happens only from the poll dispatch (level-triggered
  /// POLLOUT fires on the next iteration) — never reentrantly from
  /// delivery, so a dead peer can only tear a connection down in one
  /// well-defined place.
  void deliver(Conn &C, uint64_t Seq, std::string Doc) {
    C.ReadyBytes += Doc.size();
    C.Ready.emplace(Seq, std::move(Doc));
    flushReady(C);
  }

  // --- input -------------------------------------------------------------

  /// One complete NDJSON line: blank → skip, malformed → error document
  /// (byte-identical to `serveLine`'s), otherwise submit one tagged
  /// batch on the shared pool.
  void handleLine(Conn &C, std::string_view Line) {
    if (Line.find_first_not_of(" \t\r") == std::string_view::npos)
      return;
    uint64_t Seq = C.NextSeq++;
    std::vector<CheckRequest> Requests;
    std::string Error;
    if (!requestsFromJson(std::string(Line), Requests, &Error)) {
      Server.recordBadBatch();
      ++C.Stats.BadBatches;
      deliver(C, Seq, batchErrorToJson("batch parse error: " + Error));
      return;
    }
    ++C.Stats.Batches;
    C.Stats.Requests += Requests.size();
    ++Outstanding;
    bool Telemetry = Server.telemetry();
    std::shared_ptr<Mailbox> MB = Mail;
    uint64_t ConnId = C.Id;
    // The completion runs on a pool worker: serialise there (keeps the
    // loop thread byte-moving only) and post the document home.
    uint64_t BatchId = Server.submitBatch(
        std::move(Requests),
        [MB, ConnId, Seq, Telemetry](std::vector<CheckResponse> &&Responses,
                                     BatchTelemetry &&Tele) {
          MB->post({ConnId, Seq,
                    responsesToJson(Responses, Telemetry ? &Tele : nullptr)});
        },
        fairnessCap());
    // Empty batches (id 0) completed inline — their doc is already in
    // the mailbox; nothing to cancel later either way.
    if (BatchId != 0)
      C.Live.emplace(Seq, BatchId);
  }

  /// Peel complete lines off the input buffer, respecting the two pause
  /// conditions (backpressure high-water, per-connection batch window).
  /// Leftover bytes wait in InBuf for the next drain/completion.
  void processInput(Conn &C) {
    size_t Pos = 0;
    while (true) {
      if (C.Live.size() >= Opts.MaxBatchesInFlight)
        break;
      if (C.pendingOut() > Opts.OutputHighWater) {
        if (!C.PausedBP) {
          C.PausedBP = true;
          ++C.Stats.BackpressurePauses;
        }
        break;
      }
      size_t Nl = C.InBuf.find('\n', Pos);
      std::string_view Line;
      if (Nl != std::string::npos) {
        Line = std::string_view(C.InBuf).substr(Pos, Nl - Pos);
        Pos = Nl + 1;
      } else if (C.ReadClosed && Pos < C.InBuf.size()) {
        // The trailing-line rule (as in the stdio loop): an unterminated
        // final line still answers at EOF.
        Line = std::string_view(C.InBuf).substr(Pos);
        Pos = C.InBuf.size();
      } else {
        break;
      }
      handleLine(C, Line);
    }
    C.InBuf.erase(0, Pos);
  }

  /// Socket readable: buffer whatever arrived (frames tear anywhere) and
  /// peel lines. Bounded per event so one firehose client cannot starve
  /// the loop.
  void onReadable(Conn &C) {
    char Chunk[65536];
    for (int Rounds = 0; Rounds < 16; ++Rounds) {
      ssize_t N = ::read(C.Fd, Chunk, sizeof(Chunk));
      if (N < 0) {
        if (errno == EINTR)
          continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
          break;
        abortConn(C);
        return;
      }
      if (N == 0) {
        C.ReadClosed = true;
        break;
      }
      C.InBuf.append(Chunk, static_cast<size_t>(N));
      C.Stats.BytesIn += static_cast<uint64_t>(N);
      if (static_cast<size_t>(N) < sizeof(Chunk))
        break;
    }
    processInput(C);
    // Input high-water: if line peeling is not paused yet the buffer
    // still exceeds the mark, the leftover is one unterminated line a
    // misbehaving client is streaming with no newline. Answer with an
    // error document and stop reading — framing cannot resync, and the
    // buffer must not grow without bound. (When peeling *is* paused the
    // buffer may legitimately hold complete lines, but then POLLIN is
    // off and the buffer cannot grow either.)
    if (!C.ReadClosed && !C.PausedBP &&
        C.Live.size() < Opts.MaxBatchesInFlight &&
        C.InBuf.size() > Opts.MaxLineBytes) {
      Server.recordBadBatch();
      ++C.Stats.BadBatches;
      deliver(C, C.NextSeq++,
              batchErrorToJson("batch line exceeds maximum length"));
      C.InBuf.clear();
      C.InBuf.shrink_to_fit();
      C.ReadClosed = true;
    }
  }

  // --- lifecycle ---------------------------------------------------------

  /// Hard disconnect: cancel this connection's in-flight batches and
  /// discard its pending output — other connections are untouched. The
  /// cancelled batches' completion docs still arrive (and are dropped by
  /// the ConnId lookup), so Outstanding stays exact.
  void abortConn(Conn &C) {
    for (const auto &[Seq, BatchId] : C.Live)
      Server.cancelBatch(BatchId);
    C.Stats.Aborted = true;
    ++Owner.Stats.Aborted;
    closeConn(C);
  }

  void closeConn(Conn &C) {
    ::close(C.Fd);
    Owner.Stats.Connections.push_back(C.Stats);
    Conns.erase(C.Id); // invalidates C
  }

  /// Graceful teardown once a half-closed connection has nothing left to
  /// do: input consumed, every batch answered, output on the wire.
  ///
  /// "Every batch answered" must be judged by NextToFlush == NextSeq
  /// (every assigned sequence's document appended to OutBuf), not by
  /// Live/Ready emptiness: an inline-completed empty batch has no Live
  /// entry and its document sits in the worker mailbox until the next
  /// drain — a Live/Ready check would close the connection between the
  /// dispatch and that drain, silently dropping the response. Live and
  /// Ready emptiness follow for free: any entry there holds a sequence
  /// in [NextToFlush, NextSeq).
  void maybeClose(Conn &C) {
    if (C.ReadClosed && C.InBuf.empty() && C.NextToFlush == C.NextSeq &&
        C.OutOff == C.OutBuf.size())
      closeConn(C);
  }

  void onAccept() {
    while (Conns.size() < Opts.MaxClients && !acceptingDone()) {
      int Fd = ::accept(ListenFd, nullptr, nullptr);
      if (Fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED)
          continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK)
          std::fprintf(stderr, "warning: accept %s: %s\n", Path.c_str(),
                       std::strerror(errno));
        break;
      }
      if (!setNonBlocking(Fd)) {
        ::close(Fd);
        continue;
      }
      uint64_t Id = ++NextConnId;
      Conn &C = Conns[Id];
      C.Fd = Fd;
      C.Id = Id;
      C.Stats.Id = Id;
      ++Accepted;
      ++Owner.Stats.Accepted;
    }
  }

  /// Drain the worker mailbox: route each completed document to its
  /// connection (dropped if the client is gone), then let the connection
  /// resume input or finish closing.
  void drainMailbox() {
    for (DoneDoc &D : Mail->drain()) {
      --Outstanding;
      auto It = Conns.find(D.ConnId);
      if (It == Conns.end())
        continue; // client vanished mid-batch: discard, nobody disturbed
      Conn &C = It->second;
      C.Live.erase(D.Seq);
      deliver(C, D.Seq, std::move(D.Doc));
      if (Conns.count(D.ConnId) == 0)
        continue; // deliver's write may have aborted it
      processInput(C); // a freed batch slot may unblock buffered lines
      maybeClose(C);
    }
  }

  int run(const std::string &SocketPath) {
    Path = SocketPath;
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    if (Path.size() >= sizeof(Addr.sun_path)) {
      std::fprintf(stderr, "error: socket path too long (max %zu): %s\n",
                   sizeof(Addr.sun_path) - 1, Path.c_str());
      return 1;
    }
    std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);

    ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (ListenFd < 0)
      return failSys("socket", Path);
    ::unlink(Path.c_str()); // replace a stale socket file
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
               sizeof(Addr)) < 0 ||
        ::listen(ListenFd, /*backlog=*/64) < 0 ||
        !setNonBlocking(ListenFd)) {
      int E = failSys("bind/listen", Path);
      ::close(ListenFd);
      return E;
    }

    Mail = std::make_shared<Mailbox>();
    Mail->WakeWr = Owner.WakePipe[1];

    std::vector<pollfd> Fds;
    std::vector<uint64_t> FdConn; // parallel: conn id per pollfd (0 = none)
    bool Stopped = false;
    for (;;) {
      // Stop: cancel everything once, then keep looping to drain.
      if (stopping() && !Stopped) {
        Stopped = true;
        while (!Conns.empty())
          abortConn(Conns.begin()->second);
      }
      if ((Stopped || acceptingDone()) && Conns.empty() && Outstanding == 0)
        break;

      Fds.clear();
      FdConn.clear();
      Fds.push_back({Owner.WakePipe[0], POLLIN, 0});
      FdConn.push_back(0);
      if (!acceptingDone() && Conns.size() < Opts.MaxClients) {
        Fds.push_back({ListenFd, POLLIN, 0});
        FdConn.push_back(0);
      }
      for (auto &[Id, C] : Conns) {
        short Events = 0;
        if (!C.ReadClosed && !C.PausedBP &&
            C.Live.size() < Opts.MaxBatchesInFlight)
          Events |= POLLIN;
        if (C.OutOff < C.OutBuf.size())
          Events |= POLLOUT;
        Fds.push_back({C.Fd, Events, 0});
        FdConn.push_back(Id);
      }

      if (::poll(Fds.data(), Fds.size(), -1) < 0) {
        if (errno == EINTR)
          continue;
        std::fprintf(stderr, "error: poll: %s\n", std::strerror(errno));
        break;
      }

      // Wake pipe: drain the poke bytes, then the mailbox below.
      if (Fds[0].revents & POLLIN) {
        char Sink[256];
        while (::read(Owner.WakePipe[0], Sink, sizeof(Sink)) > 0)
          ;
      }
      for (size_t I = 1; I < Fds.size(); ++I) {
        if (Fds[I].revents == 0)
          continue;
        if (FdConn[I] == 0) {
          onAccept();
          continue;
        }
        auto It = Conns.find(FdConn[I]);
        if (It == Conns.end())
          continue;
        Conn &C = It->second;
        if (Fds[I].revents & (POLLERR | POLLHUP | POLLNVAL)) {
          // Peer fully gone (POLLHUP on a Unix stream means both
          // directions closed): nobody can read our answers — cancel
          // and discard. A half-close (shutdown(WR)) arrives as a plain
          // EOF read instead and is served to completion.
          abortConn(C);
          continue;
        }
        if (Fds[I].revents & POLLOUT)
          if (!tryWrite(C))
            continue;
        if (Fds[I].revents & POLLIN) {
          onReadable(C);
          if (Conns.count(FdConn[I]) == 0)
            continue;
        }
        maybeClose(C);
      }
      drainMailbox();
    }

    // No completion can be in flight past this point (Outstanding == 0
    // and every post precedes its drain), but retire the wake end under
    // the mailbox lock anyway so a stray post can never hit a dead fd.
    Mail->retireWake();
    ::close(ListenFd);
    ::unlink(Path.c_str());
    return 0;
  }
};

ConnectionMultiplexer::ConnectionMultiplexer(QueryServer &S, MuxOptions Opts)
    : Server(S), Opts(Opts) {
  if (::pipe(WakePipe) != 0) {
    WakePipe[0] = WakePipe[1] = -1;
    return;
  }
  setNonBlocking(WakePipe[0]);
  setNonBlocking(WakePipe[1]);
}

ConnectionMultiplexer::~ConnectionMultiplexer() {
  if (WakePipe[0] >= 0)
    ::close(WakePipe[0]);
  if (WakePipe[1] >= 0)
    ::close(WakePipe[1]);
}

int ConnectionMultiplexer::serve(const std::string &Path) {
  if (WakePipe[0] < 0)
    return failSys("pipe", Path);
  Impl Loop(*this);
  return Loop.run(Path);
}

void ConnectionMultiplexer::requestStop() {
  StopRequested.store(true, std::memory_order_relaxed);
  if (WakePipe[1] >= 0) {
    [[maybe_unused]] ssize_t N = ::write(WakePipe[1], "x", 1);
  }
}
