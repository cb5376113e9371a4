// A blocking client for the newline-delimited JSON protocol that
// pis_server and the router speak (src/server/pis_server.h). One Client is
// one connection; the benchmark never shares a connection between threads.
#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/json.h"
#include "util/socket.h"
#include "util/status.h"

namespace pisbench {

class Client {
 public:
  static pis::Result<Client> Connect(int port);

  /// Sends one request line and waits for its reply line. `*ms` (nullable)
  /// receives the round trip, from just before the send to the arrival of
  /// the whole reply line — client-side parsing is not part of it. A reply
  /// with "ok": false becomes the error Status it carries.
  pis::Result<pis::JsonValue> Call(const std::string& request,
                                   double* ms = nullptr);

  /// Size of the last reply line, delimiter excluded.
  size_t last_reply_bytes() const { return last_reply_bytes_; }

 private:
  explicit Client(pis::TcpSocket socket) : socket_(std::move(socket)) {}
  pis::TcpSocket socket_;
  size_t last_reply_bytes_ = 0;
};

std::string QueryRequest(const pis::Graph& query);
std::string AddRequest(const pis::Graph& graph);
std::string RemoveRequest(int gid);
std::string CompactRequest();

/// The "answers" array of a query reply.
pis::Result<std::vector<int>> AnswersOf(const pis::JsonValue& reply);

}  // namespace pisbench

#endif  // PERFBENCH_CLIENT_H_
