#include "load.h"

#include <sys/resource.h>
#include <time.h>

#include <atomic>
#include <cstdio>
#include <thread>

#include "client.h"
#include "core/naive_search.h"
#include "util/parallel.h"

namespace pisbench {

using pis::JsonValue;
using pis::Result;

double ProcessCpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& t) { return t.tv_sec * 1e3 + t.tv_usec / 1e3; };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec * 1e3 + ts.tv_nsec / 1e6;
}

std::vector<std::vector<int>> OracleAnswers(
    const pis::GraphDatabase& db, const std::vector<int>& gids,
    const std::vector<pis::Graph>& queries) {
  std::vector<std::vector<int>> answers(queries.size());
  pis::ParallelFor(queries.size(), pis::HardwareThreads(), [&](size_t i) {
    pis::SearchResult naive = pis::NaiveSearch(
        db, queries[i], pis::DistanceSpec::EdgeMutation(), kSigma);
    for (int& id : naive.answers) {
      if (!gids.empty()) id = gids[id];
    }
    answers[i] = std::move(naive.answers);
  });
  return answers;
}

CheckedPass CheckServedAnswers(int port,
                               const std::vector<pis::Graph>& queries,
                               const std::vector<std::vector<int>>& expected,
                               int connections, const char* what) {
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> candidates{0};
  std::atomic<uint64_t> reply_bytes{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&] {
      Result<Client> client = Client::Connect(port);
      for (size_t i = next++; i < queries.size(); i = next++) {
        Result<JsonValue> reply =
            client.ok() ? client.value().Call(QueryRequest(queries[i]))
                        : Result<JsonValue>(client.status());
        Result<std::vector<int>> answers =
            reply.ok() ? AnswersOf(reply.value())
                       : Result<std::vector<int>>(reply.status());
        if (!answers.ok() || answers.value() != expected[i]) {
          ++failed;
          std::fprintf(stderr, "%s: query %zu: %s\n", what, i,
                       answers.ok() ? "answers differ from NaiveSearch"
                                    : answers.status().ToString().c_str());
          continue;
        }
        candidates += static_cast<uint64_t>(
            reply.value().GetNumberOr("candidates", 0));
        reply_bytes += client.value().last_reply_bytes();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return {{queries.size(), failed.load()}, candidates, reply_bytes};
}

QueryLoad RunClosedLoopQueries(int port, const std::vector<pis::Graph>& queries,
                               const std::vector<std::vector<int>>* expected,
                               int clients, double seconds) {
  std::vector<std::string> requests;
  for (const pis::Graph& q : queries) requests.push_back(QueryRequest(q));

  struct ClientLoad {
    std::vector<Sample> samples;
    double cpu_ms = 0;
    OpCount ops;
  };
  std::vector<ClientLoad> per_client(clients);
  std::atomic<size_t> completed{0};
  const Clock::time_point start = Clock::now();
  auto after = [&](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  const Clock::time_point end = after(seconds);
  const Clock::time_point hard_end = after(kMaxPhaseStretch * seconds);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const double cpu_start = ThreadCpuMs();
      ClientLoad& mine = per_client[c];
      Result<Client> client = Client::Connect(port);
      if (!client.ok()) {
        std::fprintf(stderr, "query client: %s\n",
                     client.status().ToString().c_str());
        mine.ops = {1, 1};
        return;
      }
      size_t i = static_cast<size_t>(c) * requests.size() / clients;
      for (Clock::time_point now = Clock::now();
           now < hard_end && (now < end || completed < kMinQuerySamples);
           now = Clock::now()) {
        const size_t q = i++ % requests.size();
        double ms = 0;
        Result<JsonValue> reply = client.value().Call(requests[q], &ms);
        const Clock::time_point done = Clock::now();
        ++mine.ops.attempted;
        bool good = reply.ok();
        if (good && expected != nullptr) {
          Result<std::vector<int>> answers = AnswersOf(reply.value());
          good = answers.ok() && answers.value() == (*expected)[q];
        }
        if (!good) {
          ++mine.ops.failed;
          std::fprintf(stderr, "query %zu failed or answered wrongly\n", q);
          continue;
        }
        mine.samples.push_back({done, ms});
        ++completed;
      }
      mine.cpu_ms = ThreadCpuMs() - cpu_start;
    });
  }
  for (std::thread& t : threads) t.join();

  QueryLoad load;
  load.start = start;
  for (const ClientLoad& c : per_client) {
    load.samples.insert(load.samples.end(), c.samples.begin(),
                        c.samples.end());
    load.client_cpu_ms += c.cpu_ms;
    load.ops.Add(c.ops);
  }
  return load;
}

WriteStream::WriteStream(const Inputs& inputs) : inputs_(inputs) {
  for (const pis::Graph& g : inputs.db.graphs()) by_gid_.push_back(&g);
}

bool WriteStream::exhausted() const {
  if (next_is_add_) {
    return next_add_ >= static_cast<size_t>(inputs_.pool.size());
  }
  return next_remove_ >= inputs_.removal_order.size();
}

std::string WriteStream::NextRequest() const {
  return next_is_add_ ? AddRequest(inputs_.pool.at(next_add_))
                      : RemoveRequest(inputs_.removal_order[next_remove_]);
}

bool WriteStream::Ack(const Result<JsonValue>& reply) {
  bool acked = reply.ok();
  if (next_is_add_) {
    const double gid = acked ? reply.value().GetNumberOr("id", -1) : -1;
    acked = gid >= 0;
    if (acked) {
      const size_t slot = static_cast<size_t>(gid);
      if (by_gid_.size() <= slot) by_gid_.resize(slot + 1);
      by_gid_[slot] = &inputs_.pool.at(next_add_);
    }
    ++next_add_;
  } else {
    if (acked) by_gid_[inputs_.removal_order[next_remove_]] = nullptr;
    ++next_remove_;
  }
  next_is_add_ = !next_is_add_;
  return acked;
}

pis::GraphDatabase WriteStream::LiveDatabase(std::vector<int>* gids) const {
  pis::GraphDatabase live;
  gids->clear();
  for (size_t gid = 0; gid < by_gid_.size(); ++gid) {
    if (by_gid_[gid] == nullptr) continue;
    live.Add(*by_gid_[gid]);
    gids->push_back(static_cast<int>(gid));
  }
  return live;
}

namespace {

/// Sends the stream's next write and records it; `due` is its scheduled
/// send time.
void SendWrite(Client* client, WriteStream* stream, Clock::time_point due,
               WriteLoad* load) {
  const bool add = stream->next_is_add();
  const Clock::time_point sent = Clock::now();
  double ms = 0;
  Result<JsonValue> reply = client->Call(stream->NextRequest(), &ms);
  ++load->ops.attempted;
  if (!stream->Ack(reply)) {
    ++load->ops.failed;
    std::fprintf(stderr, "%s failed: %s\n", add ? "add" : "remove",
                 reply.ok() ? "no id in reply"
                            : reply.status().ToString().c_str());
    return;
  }
  load->late_ms.push_back(MsBetween(due, sent));
  load->samples.push_back({Clock::now(), MsBetween(due, sent) + ms});
  (add ? load->add_ms : load->remove_ms).push_back(ms);
}

}  // namespace

WriteLoad RunOpenLoopWrites(int port, WriteStream* stream, double rate,
                            double seconds) {
  const double cpu_start = ThreadCpuMs();
  WriteLoad load;
  Result<Client> client = Client::Connect(port);
  if (!client.ok()) {
    load.ops = {1, 1};
    return load;
  }
  load.start = Clock::now();
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rate));
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  for (int64_t i = 0; !stream->exhausted(); ++i) {
    const Clock::time_point due = load.start + i * period;
    if (due - load.start >= window) break;
    std::this_thread::sleep_until(due);
    SendWrite(&client.value(), stream, due, &load);
  }
  load.client_cpu_ms = ThreadCpuMs() - cpu_start;
  return load;
}

WriteLoad RunClosedLoopWrites(int port, WriteStream* stream, int ops) {
  const double cpu_start = ThreadCpuMs();
  WriteLoad load;
  Result<Client> client = Client::Connect(port);
  if (!client.ok()) {
    load.ops = {1, 1};
    return load;
  }
  load.start = Clock::now();
  for (int i = 0; i < ops && !stream->exhausted(); ++i) {
    SendWrite(&client.value(), stream, Clock::now(), &load);
  }
  load.client_cpu_ms = ThreadCpuMs() - cpu_start;
  return load;
}

}  // namespace pisbench
