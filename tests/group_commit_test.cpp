// Unit tests for the group-commit building blocks in isolation:
// WalWriter::AppendBatch framing and registry counters, and
// GroupCommitQueue leader/follower, poison, Flush, and Reset semantics.

#include <gtest/gtest.h>

#include <cerrno>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "persist/fault_env.h"
#include "persist/group_commit.h"
#include "persist/wal.h"
#include "persist_test_util.h"

namespace daisy {
namespace persist {
namespace {

using testutil::TempDir;
using testutil::WalCounts;

TEST(AppendBatch, WritesOneFrameSequencePerRecordOneSync) {
  TempDir tmp;
  const std::string path = tmp.Sub("batch.dwal");
  FaultInjectingEnv fenv;
  Result<std::unique_ptr<WalWriter>> writer = WalWriter::Create(path, &fenv);
  ASSERT_TRUE(writer.ok()) << writer.status();
  const uint64_t syncs_before = fenv.syncs();
  const WalCounts before = WalCounts::Now();

  ASSERT_TRUE(writer.value()
                  ->AppendBatch({"alpha", "bravo", "charlie"})
                  .ok());
  EXPECT_EQ(fenv.syncs(), syncs_before + 1);

  const WalCounts delta = WalCounts::Now() - before;
  EXPECT_EQ(delta.records, 3u);
  EXPECT_EQ(delta.batches, 1u);
  EXPECT_EQ(delta.fsyncs, 1u);

  // The batched frames decode exactly like per-op appends.
  Result<WalContents> contents = ReadWal(path, &fenv);
  ASSERT_TRUE(contents.ok()) << contents.status();
  EXPECT_FALSE(contents.value().torn_tail);
  ASSERT_EQ(contents.value().payloads.size(), 3u);
  EXPECT_EQ(contents.value().payloads[0], "alpha");
  EXPECT_EQ(contents.value().payloads[1], "bravo");
  EXPECT_EQ(contents.value().payloads[2], "charlie");
}

TEST(AppendBatch, EmptyBatchIsANoOp) {
  TempDir tmp;
  FaultInjectingEnv fenv;
  Result<std::unique_ptr<WalWriter>> writer =
      WalWriter::Create(tmp.Sub("empty.dwal"), &fenv);
  ASSERT_TRUE(writer.ok()) << writer.status();
  const uint64_t calls_before = fenv.calls();
  const WalCounts before = WalCounts::Now();
  ASSERT_TRUE(writer.value()->AppendBatch({}).ok());
  EXPECT_EQ(fenv.calls(), calls_before);
  EXPECT_EQ((WalCounts::Now() - before).batches, 0u);
}

struct QueueFixture {
  TempDir tmp;
  FaultInjectingEnv fenv;
  std::unique_ptr<WalWriter> writer;
  std::unique_ptr<GroupCommitQueue> queue;

  void Build() {
    Result<std::unique_ptr<WalWriter>> created =
        WalWriter::Create(tmp.Sub("queue.dwal"), &fenv);
    ASSERT_TRUE(created.ok()) << created.status();
    writer = std::move(created).value();
    queue = std::make_unique<GroupCommitQueue>(writer.get());
  }

  std::vector<std::string> ReadPayloads() {
    Result<WalContents> contents = ReadWal(writer->path(), &fenv);
    EXPECT_TRUE(contents.ok()) << contents.status();
    return contents.ok() ? contents.value().payloads
                         : std::vector<std::string>{};
  }
};

TEST(GroupCommitQueue, SingleOpCommitsAsBatchOfOne) {
  QueueFixture fx;
  fx.Build();
  const WalCounts before = WalCounts::Now();
  GroupCommitQueue::TicketPtr ticket = fx.queue->Enqueue("only");
  EXPECT_TRUE(fx.queue->Wait(ticket).ok());
  EXPECT_EQ(fx.ReadPayloads(), std::vector<std::string>{"only"});
  EXPECT_EQ((WalCounts::Now() - before).fsyncs, 1u);
}

TEST(GroupCommitQueue, HeldRecordsCommitAsOneBatchInOrder) {
  QueueFixture fx;
  fx.Build();
  const WalCounts before = WalCounts::Now();
  fx.queue->TestHoldCommits(true);
  std::vector<GroupCommitQueue::TicketPtr> tickets;
  for (const char* payload : {"a", "b", "c"}) {
    tickets.push_back(fx.queue->Enqueue(payload));
  }
  EXPECT_EQ(fx.queue->TestPendingDepth(), 3u);
  std::vector<std::thread> waiters;
  std::vector<Status> statuses(tickets.size());
  for (size_t i = 0; i < tickets.size(); ++i) {
    waiters.emplace_back([&, i] { statuses[i] = fx.queue->Wait(tickets[i]); });
  }
  fx.queue->TestHoldCommits(false);
  for (std::thread& t : waiters) t.join();
  for (const Status& s : statuses) EXPECT_TRUE(s.ok()) << s;
  EXPECT_EQ(fx.ReadPayloads(), (std::vector<std::string>{"a", "b", "c"}));
  // One batch of three: three records behind one write and one fsync.
  const WalCounts delta = WalCounts::Now() - before;
  EXPECT_EQ(delta.records, 3u);
  EXPECT_EQ(delta.batches, 1u);
  EXPECT_EQ(delta.fsyncs, 1u);
}

TEST(GroupCommitQueue, FailedBatchPoisonsUntilReset) {
  QueueFixture fx;
  fx.Build();
  fx.fenv.FailNthSync(fx.fenv.syncs() + 1, EIO);
  GroupCommitQueue::TicketPtr first = fx.queue->Enqueue("doomed");
  const Status failed = fx.queue->Wait(first);
  EXPECT_FALSE(failed.ok());

  // Poisoned: later enqueues fail fast with the original cause, without
  // touching the file — a record appended behind a torn region would be
  // unreachable on replay yet acked.
  const uint64_t calls_before = fx.fenv.calls();
  GroupCommitQueue::TicketPtr second = fx.queue->Enqueue("rejected");
  const Status rejected = fx.queue->Wait(second);
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(fx.fenv.calls(), calls_before);
  EXPECT_FALSE(fx.queue->Flush().ok());  // Flush reports the poison

  // Reset on a fresh writer (what generation rotation does) re-arms.
  fx.fenv.ClearFaults();
  Result<std::unique_ptr<WalWriter>> fresh =
      WalWriter::Create(fx.tmp.Sub("fresh.dwal"), &fx.fenv);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  fx.queue->Reset(fresh.value().get());
  EXPECT_TRUE(fx.queue->Flush().ok());
  GroupCommitQueue::TicketPtr third = fx.queue->Enqueue("revived");
  EXPECT_TRUE(fx.queue->Wait(third).ok());
}

TEST(GroupCommitQueue, FlushCommitsPendingInline) {
  QueueFixture fx;
  fx.Build();
  fx.queue->TestHoldCommits(true);
  GroupCommitQueue::TicketPtr t1 = fx.queue->Enqueue("x");
  GroupCommitQueue::TicketPtr t2 = fx.queue->Enqueue("y");
  EXPECT_EQ(fx.queue->TestPendingDepth(), 2u);
  // Flush ignores the hold (rotation must always be able to drain).
  EXPECT_TRUE(fx.queue->Flush().ok());
  EXPECT_EQ(fx.queue->TestPendingDepth(), 0u);
  // The tickets completed without any Wait() leader.
  EXPECT_TRUE(fx.queue->Wait(t1).ok());
  EXPECT_TRUE(fx.queue->Wait(t2).ok());
  EXPECT_EQ(fx.ReadPayloads(), (std::vector<std::string>{"x", "y"}));
  fx.queue->TestHoldCommits(false);
}

TEST(GroupCommitQueue, ManyConcurrentWritersAllCommitInEnqueueOrder) {
  QueueFixture fx;
  fx.Build();
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 25;
  const WalCounts before = WalCounts::Now();
  std::vector<std::thread> threads;
  std::vector<Status> statuses(kThreads * kOpsPerThread);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        GroupCommitQueue::TicketPtr ticket =
            fx.queue->Enqueue("t" + std::to_string(t) + "-" +
                              std::to_string(i));
        statuses[t * kOpsPerThread + i] = fx.queue->Wait(ticket);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& s : statuses) ASSERT_TRUE(s.ok()) << s;
  const std::vector<std::string> payloads = fx.ReadPayloads();
  ASSERT_EQ(payloads.size(),
            static_cast<size_t>(kThreads * kOpsPerThread));
  // Per-thread order must be preserved (each thread enqueues i before
  // i+1), even though batches interleave across threads.
  for (int t = 0; t < kThreads; ++t) {
    int last = -1;
    for (const std::string& p : payloads) {
      if (p.rfind("t" + std::to_string(t) + "-", 0) == 0) {
        const int i = std::stoi(p.substr(p.find('-') + 1));
        EXPECT_GT(i, last) << "thread " << t << " order violated";
        last = i;
      }
    }
  }
  const WalCounts delta = WalCounts::Now() - before;
  EXPECT_EQ(delta.records, static_cast<uint64_t>(kThreads * kOpsPerThread));
  EXPECT_LE(delta.fsyncs, delta.records);
}

}  // namespace
}  // namespace persist
}  // namespace daisy
