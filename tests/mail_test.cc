#include <gtest/gtest.h>

#include <future>
#include <optional>
#include <thread>

#include "mail/router.h"
#include "server/server.h"
#include "tests/test_util.h"

namespace dominodb {
namespace {

using testing_util::ScratchDir;

class MailFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_.Set(1'000'000'000);
    net_ = std::make_unique<SimNet>(&clock_);
    for (const char* name : {"alpha", "beta", "gamma"}) {
      servers_[name] = std::make_unique<Server>(
          name, dir_.Sub(name), &clock_, net_.get(), &directory_);
      ASSERT_OK(servers_[name]->EnsureMailInfrastructure());
    }
    ASSERT_OK(servers_["alpha"]->CreateMailFile("Ada").status());
    ASSERT_OK(servers_["alpha"]->CreateMailFile("Al").status());
    ASSERT_OK(servers_["beta"]->CreateMailFile("Bea").status());
    ASSERT_OK(servers_["gamma"]->CreateMailFile("Gil").status());
  }

  std::map<std::string, Router*> Peers() {
    std::map<std::string, Router*> peers;
    for (auto& [name, server] : servers_) {
      peers[name] = server->router();
    }
    return peers;
  }

  /// Runs every router until all mailboxes drain (or `max` passes).
  void RunAllRouters(int max = 10) {
    for (int i = 0; i < max; ++i) {
      size_t processed = 0;
      for (auto& [name, server] : servers_) {
        auto n = server->RunRouterOnce(Peers());
        ASSERT_OK(n);
        processed += *n;
      }
      if (processed == 0) return;
    }
  }

  size_t InboxCount(const std::string& server, const std::string& user) {
    Database* mail_file = servers_[server]->MailFileOf(user);
    EXPECT_NE(mail_file, nullptr);
    return mail_file != nullptr ? mail_file->note_count() : 0;
  }

  ScratchDir dir_;
  SimClock clock_;
  std::unique_ptr<SimNet> net_;
  MailDirectory directory_;
  std::map<std::string, std::unique_ptr<Server>> servers_;
};

TEST_F(MailFixture, LocalDelivery) {
  ASSERT_OK(servers_["alpha"]->SendMail("Al", {"Ada"}, "hi", "local note"));
  RunAllRouters();
  EXPECT_EQ(InboxCount("alpha", "Ada"), 1u);
  Database* inbox = servers_["alpha"]->MailFileOf("Ada");
  ASSERT_OK_AND_ASSIGN(auto memos, inbox->FormulaSearch("SELECT @All"));
  ASSERT_EQ(memos.size(), 1u);
  EXPECT_EQ(memos[0].GetText("Subject"), "hi");
  EXPECT_EQ(memos[0].GetText("From"), "Al");
  EXPECT_EQ(memos[0].GetText("DeliveredBy"), "alpha");
  EXPECT_TRUE(memos[0].HasItem("DeliveredDate"));
  // mail.box drained.
  EXPECT_EQ(servers_["alpha"]->router()->mailbox()->note_count(), 0u);
}

TEST_F(MailFixture, CrossServerDelivery) {
  ASSERT_OK(servers_["alpha"]->SendMail("Ada", {"Bea"}, "x-server", "body"));
  RunAllRouters();
  EXPECT_EQ(InboxCount("beta", "Bea"), 1u);
  EXPECT_GT(net_->StatsBetween("alpha", "beta").messages, 0u);
  const MailStats& stats = servers_["alpha"]->router()->stats();
  EXPECT_EQ(stats.forwarded, 1u);
}

TEST_F(MailFixture, MultiRecipientFanout) {
  ASSERT_OK(servers_["alpha"]->SendMail("Ada", {"Al", "Bea", "Gil"},
                                        "to everyone", "body"));
  RunAllRouters();
  EXPECT_EQ(InboxCount("alpha", "Al"), 1u);
  EXPECT_EQ(InboxCount("beta", "Bea"), 1u);
  EXPECT_EQ(InboxCount("gamma", "Gil"), 1u);
}

TEST_F(MailFixture, MultiHopRouting) {
  // alpha may not talk to gamma directly: route via beta.
  servers_["alpha"]->router()->SetNextHop("gamma", "beta");
  ASSERT_OK(servers_["alpha"]->SendMail("Ada", {"Gil"}, "via hub", "body"));
  RunAllRouters();
  EXPECT_EQ(InboxCount("gamma", "Gil"), 1u);
  // Traffic flowed alpha→beta and beta→gamma, not alpha→gamma.
  EXPECT_GT(net_->StatsBetween("alpha", "beta").messages, 0u);
  EXPECT_GT(net_->StatsBetween("beta", "gamma").messages, 0u);
  EXPECT_EQ(net_->StatsBetween("alpha", "gamma").messages, 0u);
  // The delivered copy shows two hops.
  Database* inbox = servers_["gamma"]->MailFileOf("Gil");
  ASSERT_OK_AND_ASSIGN(auto memos, inbox->FormulaSearch("SELECT @All"));
  ASSERT_EQ(memos.size(), 1u);
  EXPECT_EQ(memos[0].GetNumber("$Hops"), 2);
}

TEST_F(MailFixture, MultiHopDeliveryRetriesAcrossFaultyMiddleLink) {
  // 3-server chain: alpha may not talk to gamma directly, and the middle
  // link eats every transfer mid-flight until it heals.
  servers_["alpha"]->router()->SetNextHop("gamma", "beta");
  net_->SeedFaults(42);
  FaultProfile faulty;
  faulty.mid_transfer_probability = 1.0;
  net_->SetFaultProfile("beta", "gamma", faulty);

  ASSERT_OK(servers_["alpha"]->SendMail("Ada", {"Gil"}, "chain", "body"));
  RunAllRouters(5);

  // The memo crossed alpha→beta but is stuck retrying on beta→gamma.
  EXPECT_EQ(InboxCount("gamma", "Gil"), 0u);
  EXPECT_GT(servers_["beta"]->router()->stats().transfer_retries, 0u);
  EXPECT_GT(net_->StatsBetween("beta", "gamma").faults, 0u);
  EXPECT_GT(net_->StatsBetween("beta", "gamma").wasted_bytes, 0u);
  EXPECT_EQ(servers_["beta"]->router()->stats().dead_lettered, 0u);

  // Link heals: the queued copy delivers on the next passes, exactly once.
  net_->SetFaultProfile("beta", "gamma", FaultProfile{});
  RunAllRouters();
  EXPECT_EQ(InboxCount("gamma", "Gil"), 1u);
  Database* inbox = servers_["gamma"]->MailFileOf("Gil");
  ASSERT_OK_AND_ASSIGN(auto memos, inbox->FormulaSearch("SELECT @All"));
  ASSERT_EQ(memos.size(), 1u);
  EXPECT_EQ(memos[0].GetNumber("$Hops"), 2);  // alpha→beta, beta→gamma
  EXPECT_EQ(net_->StatsBetween("alpha", "gamma").messages, 0u);
  // Every router's mail.box drained; nothing dead-lettered.
  for (auto& [name, server] : servers_) {
    EXPECT_EQ(server->router()->mailbox()->note_count(), 0u) << name;
    EXPECT_EQ(server->router()->stats().dead_lettered, 0u) << name;
  }
}

TEST_F(MailFixture, NoDuplicateDeliveryOnResumedTransfer) {
  // One memo with a local and a remote recipient, where the remote leg
  // keeps failing: the local copy must not be re-delivered on retry
  // passes (the queued memo's recipient list shrinks to the remainder).
  ASSERT_OK(servers_["beta"]->CreateMailFile("Bob").status());
  net_->SeedFaults(7);
  FaultProfile faulty;
  faulty.mid_transfer_probability = 1.0;
  net_->SetFaultProfile("beta", "gamma", faulty);

  ASSERT_OK(servers_["beta"]->SendMail("Bea", {"Bob", "Gil"}, "split",
                                       "body"));
  RunAllRouters(5);

  // The local copy landed exactly once; the remote copy is still queued.
  EXPECT_EQ(InboxCount("beta", "Bob"), 1u);
  EXPECT_EQ(InboxCount("gamma", "Gil"), 0u);
  EXPECT_GT(servers_["beta"]->router()->stats().transfer_retries, 0u);
  EXPECT_EQ(servers_["beta"]->router()->mailbox()->note_count(), 1u);

  net_->SetFaultProfile("beta", "gamma", FaultProfile{});
  RunAllRouters();
  EXPECT_EQ(InboxCount("beta", "Bob"), 1u);  // still exactly one copy
  EXPECT_EQ(InboxCount("gamma", "Gil"), 1u);
  EXPECT_EQ(servers_["beta"]->router()->stats().delivered, 1u);
  EXPECT_EQ(servers_["beta"]->router()->stats().dead_lettered, 0u);
  EXPECT_EQ(servers_["beta"]->router()->mailbox()->note_count(), 0u);
}

TEST_F(MailFixture, DrainedMailBoxesHoldNoStubs) {
  // Local, cross-server, multi-hop, fan-out and dead-lettered memos: once
  // routed, each is erased from every mail.box it passed through.
  servers_["alpha"]->router()->SetNextHop("gamma", "beta");
  ASSERT_OK(servers_["alpha"]->SendMail("Al", {"Ada"}, "local", "body"));
  ASSERT_OK(servers_["alpha"]->SendMail("Ada", {"Bea"}, "remote", "body"));
  ASSERT_OK(servers_["alpha"]->SendMail("Ada", {"Gil"}, "two hops", "body"));
  ASSERT_OK(servers_["beta"]->SendMail("Bea", {"Ada", "Al", "Gil", "Ghost"},
                                       "fan-out", "body"));
  RunAllRouters();
  EXPECT_EQ(InboxCount("alpha", "Ada"), 2u);
  EXPECT_EQ(InboxCount("gamma", "Gil"), 2u);
  for (auto& [name, server] : servers_) {
    Database* box = server->router()->mailbox();
    EXPECT_EQ(box->note_count(), 0u) << name;
    EXPECT_EQ(box->stub_count(), 0u) << name;
  }
}

// One server, "solo", with two local users. Open() builds it over the same
// directory each time, so a second Open() after Crash() is a restart.
class MailBoxFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_.Set(1'000'000'000);
    ASSERT_NO_FATAL_FAILURE(Open());
  }

  void Open() {
    server_ = std::make_unique<Server>("solo", dir_.Sub("solo"), &clock_,
                                       &net_, &directory_, &registry_);
    ASSERT_OK(server_->EnsureMailInfrastructure());
    ASSERT_OK(server_->CreateMailFile("alice").status());
    ASSERT_OK(server_->CreateMailFile("bob").status());
  }

  /// Drops the server without a checkpoint: every acknowledged commit
  /// lives only in the databases' logs.
  void Crash() {
    for (const std::string& file : server_->DatabaseFiles()) {
      EXPECT_EQ(server_->FindDatabase(file)->store_stats().checkpoints, 0u)
          << file;
    }
    server_.reset();
  }

  Result<size_t> RunRouterOnce() {
    return server_->RunRouterOnce({{"solo", server_->router()}});
  }

  Database* box() { return server_->router()->mailbox(); }
  size_t BobInbox() { return server_->MailFileOf("bob")->note_count(); }

  ScratchDir dir_;
  SimClock clock_;
  SimNet net_{&clock_};
  MailDirectory directory_;
  stats::StatRegistry registry_;
  std::unique_ptr<Server> server_;
};

TEST_F(MailBoxFixture, ReaderPinnedBeforeTheEraseStillReadsTheMemo) {
  ASSERT_OK(server_->SendMail("alice", {"bob"}, "pinned", "body"));
  NoteId id = kInvalidNoteId;
  box()->ForEachLiveNote([&](const Note& note) { id = note.id(); });
  ASSERT_NE(id, kInvalidNoteId);

  std::promise<void> pinned;
  std::promise<void> erased;
  std::optional<Note> seen;
  Status read_status;
  std::thread reader([&] {
    Database::ReadTxn txn(box());
    pinned.set_value();
    erased.get_future().wait();
    auto note = box()->ReadNote(id);
    read_status = note.status();
    if (note.ok()) seen = std::move(*note);
  });
  pinned.get_future().wait();
  ASSERT_OK_AND_ASSIGN(size_t routed, RunRouterOnce());
  EXPECT_EQ(routed, 1u);
  EXPECT_EQ(box()->note_count(), 0u);
  EXPECT_EQ(box()->stub_count(), 0u);
  erased.set_value();
  reader.join();

  ASSERT_OK(read_status);
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(seen->GetText("Subject"), "pinned");
  // A reader that starts after the erase finds nothing, and the pre-image
  // is dropped once the pinned reader has gone.
  EXPECT_TRUE(box()->ReadNote(id).status().IsNotFound());
  EXPECT_EQ(box()->mvcc().live_versions(), 0u);
  EXPECT_EQ(BobInbox(), 1u);
}

TEST_F(MailBoxFixture, AcknowledgedDepositIsDeliveredOnceAfterACrash) {
  ASSERT_OK(server_->SendMail("alice", {"bob"}, "deposited", "body"));
  ASSERT_NO_FATAL_FAILURE(Crash());
  ASSERT_NO_FATAL_FAILURE(Open());
  EXPECT_GT(box()->store_stats().recovered_records, 0u);
  EXPECT_EQ(box()->note_count(), 1u);

  ASSERT_OK_AND_ASSIGN(size_t routed, RunRouterOnce());
  EXPECT_EQ(routed, 1u);
  EXPECT_EQ(BobInbox(), 1u);
  EXPECT_EQ(box()->note_count(), 0u);
  EXPECT_EQ(box()->stub_count(), 0u);
  ASSERT_OK_AND_ASSIGN(size_t again, RunRouterOnce());
  EXPECT_EQ(again, 0u);
  EXPECT_EQ(BobInbox(), 1u);
}

TEST_F(MailBoxFixture, AcknowledgedEraseIsNotRedeliveredAfterACrash) {
  ASSERT_OK(server_->SendMail("alice", {"bob"}, "routed", "body"));
  ASSERT_OK_AND_ASSIGN(size_t routed, RunRouterOnce());
  EXPECT_EQ(routed, 1u);
  EXPECT_EQ(BobInbox(), 1u);
  ASSERT_NO_FATAL_FAILURE(Crash());
  ASSERT_NO_FATAL_FAILURE(Open());
  EXPECT_GT(box()->store_stats().recovered_records, 0u);
  EXPECT_EQ(box()->note_count(), 0u);
  EXPECT_EQ(box()->stub_count(), 0u);

  ASSERT_OK_AND_ASSIGN(size_t again, RunRouterOnce());
  EXPECT_EQ(again, 0u);
  EXPECT_EQ(BobInbox(), 1u);
}

TEST(MailObservabilityTest, OldestAgeGaugeTracksAHeldMemo) {
  ScratchDir dir;
  SimClock clock;
  clock.Set(1'000'000'000);
  SimNet net(&clock);
  MailDirectory directory;
  stats::StatRegistry alpha_stats;
  stats::StatRegistry beta_stats;
  Server alpha("alpha", dir.Sub("alpha"), &clock, &net, &directory,
               &alpha_stats);
  Server beta("beta", dir.Sub("beta"), &clock, &net, &directory, &beta_stats);
  ASSERT_OK(alpha.CreateMailFile("Ada").status());
  ASSERT_OK(beta.CreateMailFile("Bea").status());
  std::map<std::string, Router*> peers = {{"alpha", alpha.router()},
                                          {"beta", beta.router()}};
  const stats::Gauge& oldest = alpha_stats.GetGauge("Mail.Box.OldestAgeMicros");

  // The partition holds the memo in alpha's mail.box; every pass sees it
  // a minute older.
  net.SetPartitioned("alpha", "beta", true);
  ASSERT_OK(alpha.SendMail("Ada", {"Bea"}, "held", "body"));
  int64_t previous = -1;
  for (int pass = 0; pass < 3; ++pass) {
    clock.Advance(60'000'000);
    ASSERT_OK(alpha.RunRouterOnce(peers).status());
    EXPECT_GT(oldest.value(), previous);
    EXPECT_GE(oldest.value(), (pass + 1) * 60'000'000ll - 1'000);
    previous = oldest.value();
  }
  EXPECT_EQ(alpha.router()->mailbox()->note_count(), 1u);

  // Healed: the memo is delivered, and the pass after that sees an empty
  // queue.
  net.SetPartitioned("alpha", "beta", false);
  ASSERT_OK_AND_ASSIGN(size_t passes,
                       Server::DrainRouters({&alpha, &beta}));
  EXPECT_GE(passes, 2u);
  EXPECT_EQ(beta.MailFileOf("Bea")->note_count(), 1u);
  EXPECT_EQ(oldest.value(), 0);
  EXPECT_EQ(beta_stats.GetGauge("Mail.Box.OldestAgeMicros").value(), 0);
}

TEST(RouterFailureTest, DeliveryFailurePropagatesRealStatusAndDeadLetters) {
  ScratchDir dir;
  SimClock clock;
  clock.Set(1'000'000'000);
  SimNet net(&clock);
  MailDirectory directory;
  stats::StatRegistry registry;
  Server solo("solo", dir.Sub("solo"), &clock, &net, &directory, &registry);
  ASSERT_OK(solo.EnsureMailInfrastructure());
  ASSERT_OK(solo.CreateMailFile("alice").status());
  ASSERT_OK(solo.CreateMailFile("bob").status());

  // Force bob's mail file to refuse the write with a concrete IO status.
  solo.router()->InjectDeliveryFaultForTesting(
      "bob", Status::IOError("simulated disk full on bob.nsf"));
  ASSERT_OK(solo.SendMail("alice", {"alice", "bob"}, "mixed", "body"));
  std::map<std::string, Router*> peers = {{"solo", solo.router()}};
  Result<size_t> run = solo.RunRouterOnce(peers);

  // The surfaced status is the store's, not a generic router error.
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kIOError);
  EXPECT_NE(run.status().message().find("simulated disk full"),
            std::string::npos);

  // Alice's copy still delivered; bob's copy dead-lettered exactly once,
  // and the registry counter agrees with the router's MailStats.
  const MailStats& mail = solo.router()->stats();
  EXPECT_EQ(mail.delivered, 1u);
  EXPECT_EQ(mail.dead_lettered, 1u);
  const stats::Counter* dead = registry.FindCounter("Mail.Dead");
  ASSERT_NE(dead, nullptr);
  EXPECT_EQ(dead->value(), mail.dead_lettered);
  EXPECT_EQ(registry.FindCounter("Mail.Delivered")->value(), mail.delivered);

  // The dead-letter event names the failing user AND the reason.
  bool event_found = false;
  for (const stats::Event& e : registry.events().Events()) {
    if (e.message.find("bob") != std::string::npos &&
        e.message.find("simulated disk full") != std::string::npos) {
      event_found = true;
    }
  }
  EXPECT_TRUE(event_found);

  // The memo was consumed (no infinite retry of a permanent failure), and
  // with the fault cleared the next memo delivers normally.
  EXPECT_EQ(solo.router()->mailbox()->note_count(), 0u);
  ASSERT_OK(solo.SendMail("alice", {"bob"}, "again", "body"));
  ASSERT_OK(solo.RunRouterOnce(peers).status());
  EXPECT_EQ(solo.MailFileOf("bob")->note_count(), 1u);
}

TEST_F(MailFixture, UnknownRecipientDeadLetters) {
  ASSERT_OK(servers_["alpha"]->SendMail("Ada", {"Nobody Real"}, "lost",
                                        "body"));
  RunAllRouters();
  EXPECT_EQ(servers_["alpha"]->router()->stats().dead_lettered, 1u);
  EXPECT_EQ(servers_["alpha"]->router()->stats().delivered, 0u);
}

TEST_F(MailFixture, MixedKnownAndUnknownRecipients) {
  ASSERT_OK(servers_["alpha"]->SendMail("Ada", {"Bea", "Ghost"}, "partial",
                                        "body"));
  RunAllRouters();
  EXPECT_EQ(InboxCount("beta", "Bea"), 1u);
  EXPECT_EQ(servers_["alpha"]->router()->stats().dead_lettered, 1u);
}

TEST_F(MailFixture, SubmitValidatesForm) {
  Note not_mail(NoteClass::kDocument);
  not_mail.SetText("Form", "Invoice");
  EXPECT_FALSE(servers_["alpha"]->router()->Submit(not_mail).ok());
}

TEST(MailDirectoryTest, Lookup) {
  MailDirectory directory;
  directory.RegisterUser("Jo", "srv1");
  ASSERT_OK_AND_ASSIGN(std::string home, directory.HomeServerOf("JO"));
  EXPECT_EQ(home, "srv1");
  EXPECT_FALSE(directory.HomeServerOf("nobody").ok());
  directory.RegisterUser("Jo", "srv2");  // move mail file
  EXPECT_EQ(*directory.HomeServerOf("jo"), "srv2");
}

TEST(MailMessageTest, Shape) {
  Note memo = MakeMailMessage("From Me", {"You", "Them"}, "subj", "hello");
  EXPECT_EQ(memo.GetText("Form"), "Memo");
  EXPECT_EQ(memo.FindValue("SendTo")->texts().size(), 2u);
  EXPECT_EQ(memo.FindValue("Body")->runs()[0].text, "hello");
}

}  // namespace
}  // namespace dominodb
