//===- Transport.h - Server transports (stdio, socket client) ---*- C++ -*-==//
///
/// \file
/// The byte-moving side of the query server outside the multiplexer: the
/// NDJSON stdin/stdout loop (the default, pipeline-friendly:
/// `printf '%s\n' <batch> | tmw_serve`) and the Unix-socket client
/// (`tmw_serve --connect`). Both speak the frame the socket server
/// (server/Multiplexer.h, `tmw_serve --listen`) speaks: one
/// `tmw-query-batch-v1` document per line in, one
/// `tmw-query-verdicts-v1` document out per batch.
///
/// The client's connect/read/write/poll loop is EINTR-safe: a signal
/// delivered to the client thread (SIGCHLD from a CI harness, SIGUSR1
/// profiling pokes) restarts the call instead of dropping the
/// connection.
///
//===----------------------------------------------------------------------===//

#ifndef TMW_SERVER_TRANSPORT_H
#define TMW_SERVER_TRANSPORT_H

#include <iosfwd>
#include <string>

namespace tmw {

class QueryServer;

namespace server {

/// Serve newline-delimited batches from stdin to stdout until EOF.
/// Returns 0.
int serveStdio(QueryServer &S);

/// The client side (`tmw_serve --connect`): connect to the Unix socket
/// at \p Path, send every line of \p In as a batch — interleaved with
/// draining the returned verdict documents to \p Out, so an input of
/// any size cannot pipe-deadlock against the server's write-side
/// backpressure — half-close once the input is on the wire, then
/// stream the remaining documents until EOF. Retries the connect
/// briefly while a freshly-started server binds. Returns 0 on success,
/// 1 on socket errors (one diagnostic line on stderr).
int runClient(const std::string &Path, std::istream &In, std::ostream &Out);

} // namespace server
} // namespace tmw

#endif // TMW_SERVER_TRANSPORT_H
