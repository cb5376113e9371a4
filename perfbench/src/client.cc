#include "client.h"

#include "bench.h"
#include "graph/io.h"

namespace pisbench {

using pis::JsonValue;
using pis::Result;
using pis::Status;

namespace {

// Generous: a request waits behind at most a few others on a busy server.
constexpr int kIoTimeoutMs = 60000;

}  // namespace

Result<Client> Client::Connect(int port) {
  PIS_ASSIGN_OR_RETURN(
      pis::TcpSocket socket,
      pis::TcpSocket::Connect("127.0.0.1", port, kIoTimeoutMs));
  return Client(std::move(socket));
}

Result<JsonValue> Client::Call(const std::string& request, double* ms) {
  const Clock::time_point start = Clock::now();
  PIS_RETURN_NOT_OK(socket_.SendLine(request));
  PIS_ASSIGN_OR_RETURN(std::string line, socket_.RecvLine());
  if (ms != nullptr) *ms = MsBetween(start, Clock::now());
  last_reply_bytes_ = line.size();
  PIS_ASSIGN_OR_RETURN(JsonValue reply, JsonValue::Parse(line));
  if (!reply.GetBoolOr("ok", false)) {
    const JsonValue* error = reply.Find("error");
    return Status::Internal("request refused: " +
                            (error != nullptr && error->is_string()
                                 ? error->AsString()
                                 : line));
  }
  return reply;
}

std::string QueryRequest(const pis::Graph& query) {
  JsonValue request = JsonValue::Object();
  request.Set("op", "query");
  request.Set("graph", pis::FormatGraph(query, 0));
  return request.Serialize();
}

std::string AddRequest(const pis::Graph& graph) {
  JsonValue request = JsonValue::Object();
  request.Set("op", "add");
  request.Set("graph", pis::FormatGraph(graph, 0));
  return request.Serialize();
}

std::string RemoveRequest(int gid) {
  JsonValue request = JsonValue::Object();
  request.Set("op", "remove");
  request.Set("id", gid);
  return request.Serialize();
}

std::string CompactRequest() {
  JsonValue request = JsonValue::Object();
  request.Set("op", "compact");
  request.Set("min_dead_ratio", 0.0);
  return request.Serialize();
}

Result<std::vector<int>> AnswersOf(const JsonValue& reply) {
  const JsonValue* answers = reply.Find("answers");
  if (answers == nullptr || !answers->is_array()) {
    return Status::Internal("query reply has no answers array");
  }
  std::vector<int> ids;
  ids.reserve(answers->size());
  for (const JsonValue& id : answers->items()) {
    if (!id.is_number()) return Status::Internal("non-numeric answer id");
    ids.push_back(static_cast<int>(id.AsNumber()));
  }
  return ids;
}

}  // namespace pisbench
