//===- Multiplexer.h - Poll-based concurrent connection multiplexer -*- C++ -*-==//
///
/// \file
/// The concurrent transport of the query server: one `poll()` event loop
/// multiplexing N Unix-socket connections over the one resident worker
/// pool and shared `SessionCache` (server/QueryServer.h's concurrent
/// `submitBatch` API) — so one `tmw_serve` process can feed many CI lanes
/// at once, the deployment shape the herd7 lineage assumes for large
/// litmus campaigns.
///
/// Design (the classic nonblocking accept loop + per-connection state
/// machine):
///
///  * **Framing.** Every connection owns an input buffer; a batch line
///    may arrive in arbitrary chunks (torn anywhere, or many lines
///    coalesced into one read) and is only acted on once its '\n'
///    arrives — plus the stdio loop's trailing-line rule: an
///    unterminated final line still answers at EOF. Blank lines are
///    skipped, malformed lines answer with the same error document
///    `serveLine` produces.
///
///  * **Concurrency without intermixing.** Each complete line becomes one
///    tagged batch on the shared pool; requests of rival connections
///    interleave worker-by-worker, but a batch's responses are collected
///    per batch and serialised into one verdicts document, and documents
///    are appended to a connection's output strictly in that connection's
///    batch arrival order (out-of-order completions wait their turn). So
///    every connection's byte stream is exactly what one-shot
///    `litmus_tool --json` would produce for its batches, regardless of
///    how many rivals are connected. Per-batch fairness caps
///    (`MuxOptions::FairnessCap`) keep one client's corpus-sized batch
///    from monopolising the pool.
///
///  * **Backpressure.** Output is buffered per connection and written as
///    the socket drains. A slow reader whose pending output exceeds
///    `OutputHighWater` stops being *read* (and stops being parsed —
///    buffered input waits too) until its writes drain below half the
///    mark; other connections are unaffected. Input is bounded too: an
///    unterminated line longer than `MaxLineBytes` answers with an
///    error document and tears the connection down (framing cannot
///    resync), so a newline-free firehose cannot grow the input buffer
///    without bound.
///
///  * **Disconnects.** A vanished client's in-flight batches are
///    cancelled (remaining requests skipped) and its pending output
///    discarded, without disturbing other connections; completion
///    accounting stays exact, so shutdown never leaks a batch.
///
/// The loop itself never evaluates a request — evaluation lives on the
/// pool workers; the loop thread only moves bytes, so a long batch never
/// blocks accepts, reads, or writes. Every accept/read/write/poll in the
/// loop restarts on EINTR: a signal delivered to the loop thread (SIGCHLD
/// from a CI harness, SIGUSR1 profiling pokes) never drops a connection
/// or a half-received frame — pinned by tests/transport_test.cpp's
/// signal-delivery tests.
///
//===----------------------------------------------------------------------===//

#ifndef TMW_SERVER_MULTIPLEXER_H
#define TMW_SERVER_MULTIPLEXER_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace tmw {

class QueryServer;

namespace server {

/// Multiplexer tuning knobs.
struct MuxOptions {
  /// Concurrent connections served at once; the listen socket stops
  /// being polled at capacity (further connects queue in the backlog).
  unsigned MaxClients = 64;
  /// Total connections to accept before the loop exits once drained
  /// (0 = serve until `requestStop`). Tests and bounded CI runs use it.
  unsigned AcceptLimit = 0;
  /// Backpressure high-water mark: a connection whose pending output
  /// exceeds this stops being read until it drains below half of it.
  size_t OutputHighWater = 4u << 20;
  /// Max concurrent pool tasks per batch (0 = the server's jobs()):
  /// bounds how much of the pool one connection's batch can occupy.
  unsigned FairnessCap = 0;
  /// Max batches of one connection in flight on the pool at once;
  /// further complete lines wait in the input buffer.
  unsigned MaxBatchesInFlight = 4;
  /// Input high-water mark: the longest unterminated line buffered for
  /// one connection. A client streaming bytes with no newline past this
  /// is answered with an error document and its read side torn down
  /// (framing cannot resync) instead of growing the input buffer without
  /// bound. Complete lines up to this length are served normally, so the
  /// default stays far above any real corpus batch.
  size_t MaxLineBytes = 64u << 20;
};

/// Lifetime counters of one connection (reported by `stats()`).
struct MuxConnStats {
  uint64_t Id = 0;
  uint64_t Batches = 0, BadBatches = 0, Requests = 0;
  uint64_t BytesIn = 0, BytesOut = 0;
  /// Peak pending-output bytes (how hard backpressure worked).
  size_t PeakBuffered = 0;
  /// Times the connection was paused for backpressure.
  uint64_t BackpressurePauses = 0;
  /// True when the connection died mid-session (error/hangup) rather
  /// than finishing cleanly.
  bool Aborted = false;
};

/// Aggregate multiplexer counters.
struct MuxStats {
  uint64_t Accepted = 0;
  uint64_t Aborted = 0;
  std::vector<MuxConnStats> Connections; ///< closed connections, in close order
};

/// The poll loop. Construct over a resident server, then `serve` (blocks
/// on the calling thread until AcceptLimit is reached and drained, or
/// `requestStop` is called from another thread).
class ConnectionMultiplexer {
public:
  ConnectionMultiplexer(QueryServer &S, MuxOptions Opts = {});
  ~ConnectionMultiplexer();
  ConnectionMultiplexer(const ConnectionMultiplexer &) = delete;
  ConnectionMultiplexer &operator=(const ConnectionMultiplexer &) = delete;

  /// Bind a Unix-domain socket at \p Path (replacing a stale socket
  /// file) and run the event loop. Call at most once per multiplexer.
  /// Returns 0 on a clean finish, 1 on socket setup errors (one
  /// diagnostic line on stderr). All in-flight batches are drained
  /// before returning — even on `requestStop` with clients still
  /// connected (their batches are cancelled, their connections closed).
  int serve(const std::string &Path);

  /// Thread-safe: wake the loop, stop accepting, cancel every in-flight
  /// batch, close all connections, drain, and make `serve` return.
  void requestStop();

  /// Counters of closed connections (call after `serve` returns; not
  /// synchronised with a running loop).
  const MuxStats &stats() const { return Stats; }

private:
  struct Impl;
  friend struct Impl;
  QueryServer &Server;
  MuxOptions Opts;
  MuxStats Stats;
  std::atomic<bool> StopRequested{false};
  /// Self-pipe (read, write ends), alive for the object's lifetime:
  /// pool workers and `requestStop` poke the loop through the write end.
  int WakePipe[2] = {-1, -1};
};

} // namespace server
} // namespace tmw

#endif // TMW_SERVER_MULTIPLEXER_H
