#include "txn/transaction.h"

#include <gtest/gtest.h>

namespace prodb {
namespace {

class TransactionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_
                    .CreateRelation(Schema("T", {{"k", ValueType::kInt},
                                                 {"v", ValueType::kSymbol}}),
                                    &rel_)
                    .ok());
    txn_manager_ = std::make_unique<TxnManager>(&catalog_, &locks_);
  }
  Catalog catalog_;
  LockManager locks_;
  Relation* rel_ = nullptr;
  std::unique_ptr<TxnManager> txn_manager_;
};

TEST_F(TransactionTest, CommitKeepsChangesAndReleasesLocks) {
  auto txn = txn_manager_->Begin();
  TupleId id;
  ASSERT_TRUE(txn->Insert("T", Tuple{Value(1), Value("a")}, &id).ok());
  EXPECT_TRUE(locks_.Holds(txn->id(), ResourceId::Tup("T", id), LockMode::kX));
  ASSERT_TRUE(txn_manager_->Commit(txn.get()).ok());
  EXPECT_EQ(txn->state(), TxnState::kCommitted);
  EXPECT_EQ(rel_->Count(), 1u);
  EXPECT_EQ(locks_.LockedResourceCount(), 0u);
}

TEST_F(TransactionTest, AbortUndoesInsert) {
  auto txn = txn_manager_->Begin();
  TupleId id;
  ASSERT_TRUE(txn->Insert("T", Tuple{Value(1), Value("a")}, &id).ok());
  ASSERT_TRUE(txn_manager_->Abort(txn.get()).ok());
  EXPECT_EQ(txn->state(), TxnState::kAborted);
  EXPECT_EQ(rel_->Count(), 0u);
  EXPECT_EQ(locks_.LockedResourceCount(), 0u);
}

TEST_F(TransactionTest, AbortRestoresDelete) {
  TupleId id;
  ASSERT_TRUE(rel_->Insert(Tuple{Value(7), Value("keep")}, &id).ok());
  auto txn = txn_manager_->Begin();
  ASSERT_TRUE(txn->Delete("T", id).ok());
  EXPECT_EQ(rel_->Count(), 0u);
  ASSERT_TRUE(txn_manager_->Abort(txn.get()).ok());
  EXPECT_EQ(rel_->Count(), 1u);
  bool found = false;
  ASSERT_TRUE(rel_->Scan([&](TupleId, const Tuple& t) {
                 found = t == Tuple{Value(7), Value("keep")};
                 return Status::OK();
               }).ok());
  EXPECT_TRUE(found);
  // Undo restores the tuple under its original id: conflict-set entries
  // made before the transaction still reference it.
  Tuple out;
  ASSERT_TRUE(rel_->Get(id, &out).ok());
  EXPECT_EQ(out, (Tuple{Value(7), Value("keep")}));
}

TEST_F(TransactionTest, UpdateIsDeleteTheInsert) {
  TupleId id;
  ASSERT_TRUE(rel_->Insert(Tuple{Value(1), Value("old")}, &id).ok());
  auto txn = txn_manager_->Begin();
  TupleId nid;
  ASSERT_TRUE(txn->Update("T", id, Tuple{Value(1), Value("new")}, &nid).ok());
  EXPECT_EQ(txn->changes().size(), 2u);
  EXPECT_TRUE(txn->changes()[0].is_delete());
  EXPECT_TRUE(txn->changes()[1].is_insert());
  // One logical WM event: the two halves are cross-linked.
  EXPECT_EQ(txn->changes()[0].modify_partner, 1);
  EXPECT_EQ(txn->changes()[1].modify_partner, 0);
  EXPECT_EQ(txn->changes()[1].id, nid);
  ASSERT_TRUE(txn_manager_->Commit(txn.get()).ok());
  Tuple out;
  ASSERT_TRUE(rel_->Get(nid, &out).ok());
  EXPECT_EQ(out[1], Value("new"));
}

TEST_F(TransactionTest, ReadLocksBlockWriters) {
  TupleId id;
  ASSERT_TRUE(rel_->Insert(Tuple{Value(1), Value("x")}, &id).ok());
  auto reader = txn_manager_->Begin();
  Tuple out;
  ASSERT_TRUE(reader->Read("T", id, &out).ok());
  // A writer in another "thread" (simulated inline) cannot take X now.
  EXPECT_TRUE(locks_.Holds(reader->id(), ResourceId::Tup("T", id),
                           LockMode::kS));
  ASSERT_TRUE(txn_manager_->Commit(reader.get()).ok());
}

TEST_F(TransactionTest, RollbackOrderIsReversed) {
  auto txn = txn_manager_->Begin();
  TupleId a, b;
  ASSERT_TRUE(txn->Insert("T", Tuple{Value(1), Value("a")}, &a).ok());
  ASSERT_TRUE(txn->Insert("T", Tuple{Value(2), Value("b")}, &b).ok());
  ASSERT_TRUE(txn->Delete("T", a).ok());
  ASSERT_TRUE(txn_manager_->Abort(txn.get()).ok());
  EXPECT_EQ(rel_->Count(), 0u);
}

TEST_F(TransactionTest, RollbackContinuesPastFailedUndo) {
  auto txn = txn_manager_->Begin();
  TupleId t1, t2;
  ASSERT_TRUE(txn->Insert("T", Tuple{Value(1), Value("a")}, &t1).ok());
  ASSERT_TRUE(txn->Insert("T", Tuple{Value(2), Value("b")}, &t2).ok());
  // Sabotage the later change so its undo (a Delete) fails: rollback
  // walks in reverse, hits the failure first, and must still undo t1
  // instead of bailing out mid-loop with WM half-rolled-back.
  ASSERT_TRUE(rel_->Delete(t2).ok());
  Status st = txn_manager_->Abort(txn.get());
  EXPECT_TRUE(st.IsNotFound()) << st.ToString();
  EXPECT_EQ(txn->state(), TxnState::kAborted);
  EXPECT_TRUE(txn->changes().empty());
  EXPECT_EQ(rel_->Count(), 0u);  // t1's undo still ran
  EXPECT_EQ(locks_.LockedResourceCount(), 0u);
}

TEST_F(TransactionTest, RollbackReportsMultipleFailedUndos) {
  auto txn = txn_manager_->Begin();
  TupleId t1, t2;
  ASSERT_TRUE(txn->Insert("T", Tuple{Value(1), Value("a")}, &t1).ok());
  ASSERT_TRUE(txn->Insert("T", Tuple{Value(2), Value("b")}, &t2).ok());
  ASSERT_TRUE(rel_->Delete(t1).ok());
  ASSERT_TRUE(rel_->Delete(t2).ok());
  Status st = txn_manager_->Abort(txn.get());
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("2 of 2"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(txn->state(), TxnState::kAborted);
}

TEST_F(TransactionTest, MissingRelationErrors) {
  auto txn = txn_manager_->Begin();
  TupleId id;
  EXPECT_TRUE(txn->Insert("Ghost", Tuple{Value(1)}, &id).IsNotFound());
  EXPECT_TRUE(txn->Delete("Ghost", TupleId{0, 0}).IsNotFound());
  ASSERT_TRUE(txn_manager_->Commit(txn.get()).ok());
}

}  // namespace
}  // namespace prodb
