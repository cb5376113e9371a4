#include "server/line_server.h"

#include <sys/socket.h>

#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "graph/io.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/timer.h"

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

const JsonValue& Member(const JsonValue& object, const char* key) {
  static const JsonValue kMissing;
  const JsonValue* v = object.Find(key);
  return v != nullptr ? *v : kMissing;
}

Result<int> AsStrictInt(const JsonValue& v, const char* what) {
  if (!v.is_number()) {
    return Status::InvalidArgument(std::string(what) + " must be a number");
  }
  const double raw = v.AsNumber();
  if (raw != std::floor(raw) || raw < -2147483648.0 || raw > 2147483647.0) {
    return Status::InvalidArgument(std::string(what) +
                                   " must be an exact 32-bit integer");
  }
  return static_cast<int>(raw);
}

Result<int> ReadNonNegative(const JsonValue& object, const char* key) {
  PIS_ASSIGN_OR_RETURN(int value, AsStrictInt(Member(object, key), key));
  if (value < 0) {
    return Status::InvalidArgument(std::string(key) + " must be >= 0");
  }
  return value;
}

Result<Graph> ReadGraph(const JsonValue& request, const std::string& who) {
  const JsonValue& text = Member(request, "graph");
  if (!text.is_string()) {
    return Status::InvalidArgument(who + " needs a string \"graph\" field");
  }
  return ParseGraph(text.AsString());
}

LineServer::LineServer(Protocol protocol, const LineServerOptions& options)
    : options_(options),
      registry_(options.metrics),
      prefix_(std::move(protocol.metric_prefix)),
      stats_(std::move(protocol.stats)),
      connections_(registry_->GetCounter(
          prefix_ + "_connections_total", "Client connections accepted.")) {
  if (options_.num_workers < 1) options_.num_workers = 1;
  RegisterOps(std::move(protocol.ops));
  if (options_.slow_query_log != nullptr) {
    options_.slow_query_log->EnableMetrics(registry_.get());
  }
}

void LineServer::RegisterOps(std::map<std::string, OpHandler> handlers) {
  handlers["stats"] = [this](const JsonValue&) {
    JsonValue reply = JsonValue::Object();
    reply.Set("ok", true);
    reply.Set("stats", stats_());
    reply.Set("metrics", registry_->ToJsonValue());
    return reply;
  };
  handlers["metrics"] = [this](const JsonValue&) {
    JsonValue reply = JsonValue::Object();
    reply.Set("ok", true);
    reply.Set("content_type", "text/plain; version=0.0.4");
    reply.Set("text", registry_->RenderPrometheus());
    return reply;
  };
  handlers["shutdown"] = nullptr;  // HandleLine answers it
  handlers["other"] = nullptr;     // every line no op claims
  for (auto& [op, handler] : handlers) {
    ops_[op] = Op{
        std::move(handler),
        registry_->GetCounter(prefix_ + "_requests_total",
                              "Protocol requests handled, per op.",
                              {{"op", op}}),
        registry_->GetHistogram(
            prefix_ + "_request_seconds",
            "Wall time spent handling one protocol request, per op.",
            Histogram::DefaultLatencyBounds(), {{"op", op}})};
  }
  other_ = &ops_.at("other");
}

uint64_t LineServer::requests_served() const {
  uint64_t total = 0;
  for (const auto& [op, entry] : ops_) total += entry.requests->value();
  return total;
}

JsonValue LineServer::HandleLine(const std::string& line, bool* shutdown) {
  Timer timer;
  Result<JsonValue> request = JsonValue::Parse(line);
  const bool is_object = request.ok() && request.value().is_object();
  const std::string op =
      is_object ? request.value().GetStringOr("op", "") : "";
  auto found = ops_.find(op);
  const Op& entry = found != ops_.end() ? found->second : *other_;
  JsonValue reply;
  if (!request.ok()) {
    reply = ErrorReply(request.status());
  } else if (!is_object) {
    reply = ErrorReply("request must be a JSON object");
  } else if (op == "shutdown") {
    *shutdown = true;
    reply = JsonValue::Object();
    reply.Set("ok", true);
    reply.Set("status", "stopping");
  } else if (entry.handler != nullptr) {
    reply = entry.handler(request.value());
  } else {
    reply = ErrorReply(op.empty() ? "request is missing \"op\""
                                  : "unknown op \"" + op + "\"");
  }
  entry.requests->Inc();
  entry.latency->Observe(timer.Seconds());
  return reply;
}

bool LineServer::Tracing(const JsonValue& request) const {
  return request.GetBoolOr("trace", false) ||
         (options_.slow_query_log != nullptr &&
          options_.slow_query_log->enabled());
}

void LineServer::FinishQuery(const JsonValue& request,
                             const SearchResult& result,
                             TraceContext* trace,
                             JsonValue* reply) const {
  const QueryStats& qs = result.stats;
  JsonValue answers = JsonValue::Array();
  for (int gid : result.answers) answers.Push(gid);
  reply->Set("answers", std::move(answers));
  reply->Set("candidates", qs.candidates_final);
  JsonValue stats = JsonValue::Object();
  stats.Set("fragments", qs.fragments_enumerated);
  stats.Set("range_queries", qs.range_queries);
  stats.Set("filter_ms", qs.filter_seconds * 1e3);
  stats.Set("verify_ms", qs.verify_seconds * 1e3);
  reply->Set("stats", std::move(stats));
  if (trace == nullptr) return;
  JsonValue trace_json = trace->ToJsonValue();
  trace_json.Set("op", "query");
  trace_json.Set("answers", static_cast<int>(result.answers.size()));
  SlowQueryLog* slow_log = options_.slow_query_log;
  if (slow_log != nullptr &&
      slow_log->ShouldLog(trace_json.GetNumberOr("total_ms", 0))) {
    slow_log->Log(trace_json);
  }
  if (request.GetBoolOr("trace", false)) {
    reply->Set("trace", std::move(trace_json));
  }
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
    connections_->Inc();
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
    JsonValue reply = HandleLine(line.value(), &shutdown);
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
