#include "server/line_server.h"

#include <sys/socket.h>

#include <chrono>
#include <thread>
#include <utility>

#include "util/logging.h"
#include "util/parallel.h"

namespace pis {

JsonValue ErrorReply(const Status& status) {
  JsonValue reply = JsonValue::Object();
  reply.Set("ok", false);
  reply.Set("code", StatusCodeName(status.code()));
  reply.Set("error", status.ToString());
  return reply;
}

JsonValue ErrorReply(const std::string& message) {
  return ErrorReply(Status::InvalidArgument(message));
}

LineServer::LineServer(Handler handler, const LineServerOptions& options)
    : handler_(std::move(handler)), options_(options) {
  PIS_CHECK(handler_ != nullptr);
  if (options_.num_workers < 1) options_.num_workers = 1;
}

LineServer::~LineServer() {
  Shutdown();
  Wait();
}

Status LineServer::Start() {
  MutexLock lock(&serve_mu_);
  if (serve_thread_.joinable()) {
    return Status::AlreadyExists("server already started");
  }
  PIS_ASSIGN_OR_RETURN(
      listener_,
      TcpListener::Listen(options_.port, options_.loopback_only,
                          /*backlog=*/options_.num_workers * 4));
  // ParallelFor is the worker pool: N long-lived accept-and-serve loops.
  // serving_ flips true before the pool exists and false only when the
  // whole pool has exited, so running() brackets the serving lifetime
  // without ever touching the (serve_mu_-guarded) thread object.
  const int workers = options_.num_workers;
  serving_.store(true, std::memory_order_release);
  serve_thread_ = std::thread([this, workers] {
    ParallelFor(static_cast<size_t>(workers), workers,
                [this](size_t) { WorkerLoop(); });
    serving_.store(false, std::memory_order_release);
  });
  return Status::OK();
}

void LineServer::Wait() {
  MutexLock lock(&serve_mu_);
  if (serve_thread_.joinable()) {
    serve_thread_.join();
    serve_thread_ = std::thread();
  }
}

void LineServer::Shutdown() {
  stopping_.store(true);
  listener_.Shutdown();
  MutexLock lock(&live_mu_);
  for (int fd : live_fds_) {
    // Severing the stream unblocks a worker parked in RecvLine; the worker
    // owns (and closes) the descriptor itself.
    ::shutdown(fd, SHUT_RDWR);
  }
}

void LineServer::WorkerLoop() {
  while (!stopping_.load()) {
    bool fatal = false;
    Result<TcpSocket> conn = listener_.Accept(&fatal);
    if (!conn.ok()) {
      if (stopping_.load()) return;  // listener shut down: normal exit
      if (fatal) {
        // The listener itself is broken — every retry would fail the same
        // way, so a backoff loop here would just spin forever. Leave with
        // the reason on record instead of burning a core.
        PIS_LOG(Error) << "worker exiting, listener is unusable: "
                       << conn.status().ToString();
        return;
      }
      // Transient pressure (e.g. fd exhaustion): back off and keep the
      // worker alive rather than silently shrinking the pool to zero.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      continue;
    }
    ++connections_served_;
    ServeConnection(conn.MoveValue());
  }
}

void LineServer::ServeConnection(TcpSocket conn) {
  {
    MutexLock lock(&live_mu_);
    live_fds_.insert(conn.fd());
  }
  // A Shutdown() racing with the insert above may have severed the live set
  // before this fd joined it; stopping_ is always set first, so re-checking
  // here closes the window (otherwise RecvLine could park forever).
  if (stopping_.load()) {
    MutexLock lock(&live_mu_);
    live_fds_.erase(conn.fd());
    return;
  }
  const int fd = conn.fd();
  while (!stopping_.load()) {
    Result<std::string> line = conn.RecvLine(options_.max_request_bytes);
    if (!line.ok()) {
      if (line.status().code() == StatusCode::kInvalidArgument) {
        // Oversized frame: tell the peer, then drop the connection (the
        // stream position is unrecoverable mid-frame).
        (void)conn.SendLine(ErrorReply(line.status()).Serialize());
      }
      break;
    }
    if (line.value().empty()) continue;  // blank keep-alive line
    bool shutdown = false;
    JsonValue reply = handler_(line.value(), &shutdown);
    ++requests_served_;
    Status sent = conn.SendLine(reply.Serialize());
    if (shutdown) {
      Shutdown();
      break;
    }
    if (!sent.ok()) break;
  }
  MutexLock lock(&live_mu_);
  live_fds_.erase(fd);
}

}  // namespace pis
