#ifndef DOMINODB_SERVER_REPLICATION_SCHEDULER_H_
#define DOMINODB_SERVER_REPLICATION_SCHEDULER_H_

#include <string>
#include <vector>

#include "base/result.h"
#include "server/server.h"

namespace dominodb {

/// One scheduled connection: the pair of servers that replicate.
struct TopologyLink {
  std::string a;
  std::string b;
};

/// Builders for the classic replication topologies the paper discusses
/// for Domino deployments. `names[0]` is the hub for HubSpoke.
std::vector<TopologyLink> HubSpokeTopology(
    const std::vector<std::string>& names);
std::vector<TopologyLink> RingTopology(const std::vector<std::string>& names);
std::vector<TopologyLink> MeshTopology(const std::vector<std::string>& names);

/// True if all replicas hold exactly the same set of notes (UNID, OID and
/// content, stubs included).
bool DatabasesConverged(const std::vector<Database*>& replicas);

/// Declares the replication of one database file across a server
/// topology as Domino connection documents, and polls the servers'
/// replicator tasks, which run every session. A failing pair backs off,
/// trips its circuit or is disabled on its own; healthy pairs keep
/// replicating.
class ReplicationScheduler {
 public:
  ReplicationScheduler(std::vector<Server*> servers, std::string file)
      : servers_(std::move(servers)), file_(std::move(file)) {}

  /// Registers each link as a connection document (every poll, default
  /// options) on its first server, starting that server's replicator task
  /// with the default RetryPolicy unless it already runs. For another
  /// policy, call Server::StartReplicator first. NotFound if a link names
  /// a server not in the fleet.
  Status SetTopology(const std::vector<TopologyLink>& links);

  /// Polls every server's replicator task once at the server's clock and
  /// merges the run reports. Servers without a task are skipped. With the
  /// servers listed in topology-name order, one poll runs the links'
  /// sessions in link order.
  repl::SchedulerRunReport RunAllDue();

  /// Polls until all replicas converge or `max_rounds` polls have run.
  /// Returns the number of polls; if not converged, the error names every
  /// connection that is dead, backing off or circuit-open, with its last
  /// error.
  Result<int> RunUntilConverged(int max_rounds);

  bool Converged() const;
  std::vector<Database*> Replicas() const;

 private:
  Server* FindServer(const std::string& name) const;

  std::vector<Server*> servers_;
  std::string file_;
};

}  // namespace dominodb

#endif  // DOMINODB_SERVER_REPLICATION_SCHEDULER_H_
