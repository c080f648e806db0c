#ifndef PRODB_NET_SERVER_H_
#define PRODB_NET_SERVER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/production_system.h"
#include "net/socket.h"
#include "net/wire.h"

namespace prodb {
namespace net {

struct RuleServerOptions {
  /// TCP listener. port >= 0 enables it; 0 picks an ephemeral port
  /// (readable from RuleServer::tcp_port() after Start).
  std::string tcp_host = "127.0.0.1";
  int tcp_port = -1;
  /// Unix-domain listener (empty = disabled). Both listeners may be on.
  std::string unix_path;
  int backlog = 64;
  /// A session batch picked as deadlock victim is compensated and
  /// retried this many times before the client gets the error.
  size_t deadlock_retries = 8;
  /// Whether clients may send kLoad (rule/class definitions). Off for
  /// deployments where the rule program is fixed at startup.
  bool allow_load = true;
  /// Rule program installed at Start (before listeners open). On a
  /// reopened durable database the recovered WM is reseeded into the
  /// matcher right after.
  std::string preload;
  /// The engine under the server.
  ProductionSystemOptions system;
};

/// Monotonic counters, readable while the server runs (kStats also
/// reports them on the wire).
struct ServerStats {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> sessions_active{0};
  std::atomic<uint64_t> batches_applied{0};
  std::atomic<uint64_t> ops_applied{0};
  std::atomic<uint64_t> deadlock_retries{0};
  std::atomic<uint64_t> frames_rejected{0};  // kError replies sent
  std::atomic<uint64_t> runs{0};
};

/// The serving layer: TCP / Unix-domain listeners, persistent framed
/// connections, one session thread per connection.
///
/// Each session maps onto the concurrent engine's transaction machinery:
/// a kBatch becomes one transaction (2PL write locks, undo-logged
/// mutations), its ChangeSet reaches the matcher in a single OnBatch
/// under the server's maintenance mutex (so the conflict-set delta
/// captured for the ack is exactly this batch's), and the positive ack
/// is sent only after TxnManager::Commit has forced the WAL through the
/// commit record — group commit: one force covers every concurrently
/// acking session. The maintain-then-commit step is the engine's own
/// (ConcurrentEngine::CommitAfterMaintenance), so a failed batch ends in
/// TxnManager::Abort exactly as a failed firing does; a deadlock victim
/// is then retried.
class RuleServer {
 public:
  explicit RuleServer(RuleServerOptions options);
  ~RuleServer();

  RuleServer(const RuleServer&) = delete;
  RuleServer& operator=(const RuleServer&) = delete;

  /// Builds the system, installs the preload program (reseeding the
  /// matcher when reopening a durable database), opens the listeners and
  /// starts accepting. InvalidArgument when neither listener is enabled.
  Status Start();

  /// Stops accepting, closes every session socket, joins all threads.
  /// Idempotent.
  void Stop();

  /// The bound TCP port (ephemeral-port resolution), -1 when disabled.
  int tcp_port() const { return tcp_port_; }

  ProductionSystem& system() { return *system_; }
  ServerStats& stats() { return stats_; }

 private:
  struct Session {
    Socket sock;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop(Socket* listener);
  void SessionLoop(Session* session);

  /// Replies kError and counts it. A failed send is ignored — the
  /// session loop notices the dead socket on its next read.
  void SendError(Socket* sock, const Status& st);

  Status HandleBatch(Socket* sock, const std::string& payload);
  Status HandleRun(Socket* sock, const std::string& payload);
  Status HandleLoad(Socket* sock, const std::string& payload);
  Status HandleDump(Socket* sock, const std::string& payload);
  Status HandleStats(Socket* sock);

  /// Applies one decoded batch as a transaction; fills the ack on
  /// success. Status::Deadlock means the batch was compensated away and
  /// can be retried.
  Status ApplyBatchOnce(const WireBatch& batch, WireBatchAck* ack);

  RuleServerOptions options_;
  std::unique_ptr<ProductionSystem> system_;
  ServerStats stats_;

  /// Serializes matcher maintenance (OnBatch + its delta-listener
  /// bracket), kRun drains and kLoad installs. Commits happen outside it
  /// so sessions group-commit concurrently.
  std::mutex maintenance_mu_;

  Socket tcp_listener_;
  Socket unix_listener_;
  int tcp_port_ = -1;
  std::atomic<bool> running_{false};
  std::vector<std::thread> accept_threads_;

  std::mutex sessions_mu_;
  std::vector<std::unique_ptr<Session>> sessions_;
};

}  // namespace net
}  // namespace prodb

#endif  // PRODB_NET_SERVER_H_
