// daisyd's socket server: listeners, a bounded accept queue, and a fixed
// worker pool serving one connection per thread.
//
// Architecture (one box per thread kind):
//
//   [accept thread per listener] --accepted fd--> [bounded queue]
//                                                      |
//                     +--------------------------------+
//                     v
//   [worker pool: ServeConnection(fd)]
//     Hello/HelloAck handshake -> request loop -> Bye/hangup
//     per statement: decode frame -> DaisyEngine call -> reply frames
//     side thread: hangup watchdog (MSG_PEEK) -> Session::disconnected
//
// Admission control happens at two layers. The accept queue is the outer
// gate: when it is full, the connection is answered with a single
// kResourceExhausted Error frame and closed — clients see a clean
// retryable error instead of an unbounded accept backlog. Inside, each
// statement maps onto the engine's reader/writer protocol exactly like an
// embedded caller: quiescent-rule reads run concurrently under the shared
// lock, writers serialize behind the exclusive lock and commit through the
// group-commit WAL queue. The server adds no locking of its own around
// the engine — DaisyEngine is the concurrency control.
//
// Durability/ack ordering: a write statement's Ack frame is sent only
// after the engine call returns, and the engine only returns once the
// operation's WAL record is fsync-durable (or the op degraded, in which
// case the client sees a kDegraded Error frame). A client can therefore
// treat any received Ack as crash-safe.

#ifndef DAISY_SERVER_SERVER_H_
#define DAISY_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "server/session.h"

namespace daisy {

class DaisyEngine;

namespace server {

struct ServerOptions {
  /// Path for the unix-domain listener; empty = no unix listener. A stale
  /// socket file at the path is unlinked before binding.
  std::string unix_path;
  /// IPv4 listen address for the TCP listener (numeric, e.g. "127.0.0.1");
  /// empty = no TCP listener.
  std::string tcp_host;
  /// TCP port; 0 = kernel-assigned (read back via tcp_port()).
  int tcp_port = 0;
  /// Connection-serving worker threads (= max concurrent sessions).
  size_t worker_threads = 4;
  /// Accepted-but-unserved connections held before new arrivals are
  /// bounced with kResourceExhausted.
  size_t accept_backlog = 16;
};

/// Thread-per-connection socket server over one DaisyEngine. Start() is
/// one-shot; Stop() (or the destructor) shuts listeners and in-flight
/// sessions down and joins every thread.
class DaisyServer {
 public:
  /// `engine` must be Prepare()d and must outlive the server.
  DaisyServer(DaisyEngine* engine, ServerOptions options);
  ~DaisyServer();

  DaisyServer(const DaisyServer&) = delete;
  DaisyServer& operator=(const DaisyServer&) = delete;

  /// Binds listeners and spawns accept + worker threads. Fails without
  /// side effects if no listener is configured or a bind fails.
  Status Start();

  /// Idempotent. Closes listeners, disconnects in-flight sessions
  /// (queries cut via cancel-on-disconnect), joins all threads.
  void Stop();

  /// Bound TCP port (resolves options.tcp_port == 0), or -1 without a
  /// TCP listener. Valid after Start().
  int tcp_port() const { return tcp_port_; }

  uint64_t sessions_served() const {
    return sessions_served_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop(int listen_fd);
  void WorkerLoop();
  void ServeConnection(int fd);

  /// One decoded request frame -> reply frame(s). Returns false when the
  /// session should end (Bye, poisoned stream, dead socket).
  bool DispatchRequest(Session* session, const std::string& payload);

  bool HandleQuery(Session* session, const std::string& payload);
  bool HandleAppend(Session* session, const std::string& payload);
  bool HandleDelete(Session* session, const std::string& payload);
  bool HandleSimple(Session* session, Status (*op)(DaisyEngine*));
  bool HandleHealth(Session* session);
  bool HandleSchema(Session* session);
  /// Replies with the process metrics registry rendered as a Prometheus
  /// text exposition page (common/metrics.h).
  bool HandleMetrics(Session* session);

  /// Sends an Error frame for `s`; returns false if the send failed.
  bool SendError(int fd, const Status& s);

  /// Observes the current request's latency, once. Called just before its
  /// last reply frame is written, so the server's interval nests inside
  /// the client's and excludes the teardown after the reply.
  void StopRequestClock(Session* session);
  /// Writes the request's last reply frame (stopping its clock first);
  /// returns false if the send failed.
  bool Reply(Session* session, const std::string& payload);
  /// Reply() with an Error frame for `s`.
  bool ReplyError(Session* session, const Status& s);

  DaisyEngine* engine_;
  ServerOptions options_;

  std::vector<int> listen_fds_;
  int tcp_port_ = -1;

  /// Guards the accept queue; accept threads push, workers pop.
  Mutex queue_mu_;
  CondVar queue_cv_;
  std::deque<int> pending_fds_ DAISY_GUARDED_BY(queue_mu_);

  /// Guards the set of fds with a live serve loop (Stop() shuts them down).
  Mutex conns_mu_;
  std::set<int> active_fds_ DAISY_GUARDED_BY(conns_mu_);

  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> next_session_id_{1};
  std::atomic<uint64_t> sessions_served_{0};

  std::vector<std::thread> accept_threads_;
  std::vector<std::thread> workers_;
  bool started_ = false;
};

}  // namespace server
}  // namespace daisy

#endif  // DAISY_SERVER_SERVER_H_
