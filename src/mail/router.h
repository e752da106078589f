#ifndef DOMINODB_MAIL_ROUTER_H_
#define DOMINODB_MAIL_ROUTER_H_

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/result.h"
#include "core/database.h"
#include "net/sim_net.h"
#include "stats/stats.h"

namespace dominodb {

/// The name-and-address book (Domino Directory) subset the router needs:
/// which server hosts each user's mail file. Shared by all servers of a
/// domain.
class MailDirectory {
 public:
  void RegisterUser(const std::string& user, const std::string& home_server);
  Result<std::string> HomeServerOf(const std::string& user) const;
  size_t user_count() const { return home_servers_.size(); }

 private:
  std::map<std::string, std::string> home_servers_;  // lower(user) → server
};

/// Builds a memo document (Form = "Memo") ready for Router::Submit.
Note MakeMailMessage(const std::string& from,
                     const std::vector<std::string>& to,
                     const std::string& subject, const std::string& body);

struct MailStats {
  uint64_t submitted = 0;
  uint64_t delivered = 0;     // copies placed into mail files
  uint64_t forwarded = 0;     // copies handed to another server
  uint64_t dead_lettered = 0; // unknown recipients + permanent failures
  uint64_t hops_total = 0;    // sum of per-message hop counts at delivery
  /// Transient transfer failures (the SimNet link ate the message) that
  /// left the affected copies queued for the next RunOnce pass.
  uint64_t transfer_retries = 0;
};

/// The router task of one server: drains the server's mail.box, delivering
/// local recipients into their mail files and forwarding remote
/// recipients toward their home server via the next-hop table (multi-hop
/// routing, as in Notes named networks).
class Router {
 public:
  /// `stats` (nullable → the global registry) receives the server-wide
  /// `Mail.*` counters; dead letters also log a Warning event.
  Router(std::string server_name, Database* mailbox,
         const MailDirectory* directory, SimNet* net,
         stats::StatRegistry* stats = nullptr);

  /// Registers a locally hosted mail file.
  void AttachMailFile(const std::string& user, Database* mail_file);

  /// Explicit route: traffic for `destination` goes via `next_hop`.
  /// Without an entry the router sends directly.
  void SetNextHop(const std::string& destination,
                  const std::string& next_hop);

  /// Client submission into this server's mail.box. A mail.box write
  /// failure surfaces the store's real status (not a generic error).
  Status Submit(Note message);

  /// Processes every pending message once; a memo whose copies have all
  /// been delivered, forwarded or dead-lettered is erased from mail.box.
  /// `peers` maps server names to their routers (the transport is the
  /// shared SimNet). Returns the number of messages processed
  /// (retained-for-retry messages count as processed, so drain loops keep
  /// polling while work remains).
  ///
  /// Failure handling, per recipient copy:
  ///  - transient transfer failures (the link dropped the message) keep
  ///    exactly the undelivered copies queued — the memo's recipient list
  ///    is rewritten to the remainder, so a resumed transfer can never
  ///    duplicate a delivery that already happened;
  ///  - permanent failures (unknown recipient, no route, a mail-file
  ///    write error) dead-letter the copy with the failing user and the
  ///    real reason. The first store failure's status is surfaced as the
  ///    call's error after the pass completes.
  Result<size_t> RunOnce(const std::map<std::string, Router*>& peers);

  /// Test-only: forces the next local delivery for `user` to fail with
  /// `status` (cleared once it fires) — stands in for a store-level
  /// write failure, which the paged store offers no seam to inject.
  void InjectDeliveryFaultForTesting(const std::string& user, Status status);

  const MailStats& stats() const { return stats_; }
  Database* mailbox() { return mailbox_; }
  const std::string& server_name() const { return server_name_; }

 private:
  /// Delivers one copy into the user's local mail file. A missing mail
  /// file dead-letters and returns Ok (routing continues); a store write
  /// failure dead-letters with the real reason and returns that status.
  Status DeliverLocal(const std::string& user, const Note& message);
  std::string NextHopFor(const std::string& destination) const;
  void DeadLetter(const std::string& user, const std::string& reason,
                  size_t copies = 1);

  std::string server_name_;
  Database* mailbox_;
  const MailDirectory* directory_;
  SimNet* net_;
  std::map<std::string, Database*> mail_files_;  // lower(user) → db
  std::map<std::string, std::string> next_hops_;
  MailStats stats_;
  /// Armed by InjectDeliveryFaultForTesting: lower(user) → forced status.
  std::optional<std::pair<std::string, Status>> delivery_fault_;

  // Server-wide mirrors of MailStats (dotted Domino stat names).
  stats::StatRegistry* registry_;
  stats::Counter* ctr_submitted_;
  stats::Counter* ctr_delivered_;
  stats::Counter* ctr_forwarded_;
  stats::Counter* ctr_dead_;
  stats::Counter* ctr_hops_;
  stats::Counter* ctr_retries_;
  /// Age of the oldest memo in mail.box at the start of the last RunOnce
  /// pass (0 when the queue was empty).
  stats::Gauge* gauge_oldest_age_;
};

}  // namespace dominodb

#endif  // DOMINODB_MAIL_ROUTER_H_
