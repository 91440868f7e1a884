#pragma once

// RPC request/response payload types for the placement subsystem: the
// versioned directory (dir.lookup) and the live fragment migration protocol
// (mig.*).
//
// Every type has user-provided constructors (non-aggregate) — required by
// the GCC 12 coroutine workaround documented in DESIGN.md decision 6. The
// ops of a migration's source stream travel as the store's
// msg::SyncRequest — a catch-up batch over "mig.ops", one forwarded op
// over "mig.apply" — and both answer msg::HandoffApplyReply; only the
// shapes unique to placement live here.

#include <cstdint>
#include <utility>
#include <vector>

#include "store/collection.hpp"
#include "store/repository.hpp"

namespace weakset::placement::msg {

/// dir.lookup: resolve one collection's current placement.
class DirLookupRequest {
 public:
  explicit DirLookupRequest(CollectionId id) : id_(id) {}
  [[nodiscard]] CollectionId id() const noexcept { return id_; }

 private:
  CollectionId id_;
};

/// Reply to dir.lookup: one epoch-stamped placement view.
class DirView {
 public:
  DirView(std::uint64_t epoch, std::vector<FragmentMeta> fragments)
      : epoch_(epoch), fragments_(std::move(fragments)) {}
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] const std::vector<FragmentMeta>& fragments() const noexcept {
    return fragments_;
  }

 private:
  std::uint64_t epoch_;
  std::vector<FragmentMeta> fragments_;
};

/// mig.execute: ask the receiving node (the fragment's current primary) to
/// migrate fragment `fragment` of `collection` to `target`, running the
/// whole source-side protocol. Sent by the rebalancer or a test driver.
class MigrateRequest {
 public:
  MigrateRequest(CollectionId collection, std::size_t fragment, NodeId target)
      : collection_(collection), fragment_(fragment), target_(target) {}
  [[nodiscard]] CollectionId collection() const noexcept { return collection_; }
  [[nodiscard]] std::size_t fragment() const noexcept { return fragment_; }
  [[nodiscard]] NodeId target() const noexcept { return target_; }

 private:
  CollectionId collection_;
  std::size_t fragment_;
  NodeId target_;
};

/// Reply to mig.execute: the directory epoch the commit bumped to.
class MigrateReply {
 public:
  explicit MigrateReply(std::uint64_t epoch) : epoch_(epoch) {}
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

 private:
  std::uint64_t epoch_;
};

/// mig.begin: target side — allocate a staging area for the incoming
/// fragment stream (a fresh one; any stale staging for `id` is discarded).
class MigBeginRequest {
 public:
  MigBeginRequest(CollectionId id, NodeId source, std::uint64_t incarnation)
      : id_(id), source_(source), incarnation_(incarnation) {}
  [[nodiscard]] CollectionId id() const noexcept { return id_; }
  [[nodiscard]] NodeId source() const noexcept { return source_; }
  [[nodiscard]] std::uint64_t incarnation() const noexcept {
    return incarnation_;
  }

 private:
  CollectionId id_;
  NodeId source_;
  std::uint64_t incarnation_;
};

/// mig.chunk: one slice of the fragment's member snapshot. The final chunk
/// carries the snapshot cursors and seals the staging area (after which the
/// catch-up op stream applies).
class MigChunkRequest {
 public:
  MigChunkRequest(CollectionId id, std::vector<ObjectRef> members,
                  bool final_chunk, std::uint64_t version,
                  std::uint64_t last_seq, std::uint64_t incarnation)
      : id_(id),
        members_(std::move(members)),
        final_chunk_(final_chunk),
        version_(version),
        last_seq_(last_seq),
        incarnation_(incarnation) {}
  [[nodiscard]] CollectionId id() const noexcept { return id_; }
  [[nodiscard]] const std::vector<ObjectRef>& members() const noexcept {
    return members_;
  }
  [[nodiscard]] bool final_chunk() const noexcept { return final_chunk_; }
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }
  [[nodiscard]] std::uint64_t last_seq() const noexcept { return last_seq_; }
  [[nodiscard]] std::uint64_t incarnation() const noexcept {
    return incarnation_;
  }

 private:
  CollectionId id_;
  std::vector<ObjectRef> members_;
  bool final_chunk_;
  std::uint64_t version_;
  std::uint64_t last_seq_;
  std::uint64_t incarnation_;
};

/// Reply to mig.chunk: how many members are staged so far.
class MigChunkReply {
 public:
  explicit MigChunkReply(std::uint64_t staged) : staged_(staged) {}
  [[nodiscard]] std::uint64_t staged() const noexcept { return staged_; }

 private:
  std::uint64_t staged_;
};

/// mig.finish: commit, target side. Promote the staged fragment to a hosted
/// primary once it has applied everything up to `expected_last_seq`, persist
/// it (checkpoint), and only then reply promoted=true — the source retires
/// its copy only after that durability point.
class MigFinishRequest {
 public:
  MigFinishRequest(CollectionId id, std::uint64_t expected_last_seq)
      : id_(id), expected_last_seq_(expected_last_seq) {}
  [[nodiscard]] CollectionId id() const noexcept { return id_; }
  [[nodiscard]] std::uint64_t expected_last_seq() const noexcept {
    return expected_last_seq_;
  }

 private:
  CollectionId id_;
  std::uint64_t expected_last_seq_;
};

/// Reply to mig.finish. promoted=false means the staging is missing or
/// behind `expected_last_seq` — the source aborts instead of committing.
class MigFinishReply {
 public:
  MigFinishReply(bool promoted, std::uint64_t applied_seq)
      : promoted_(promoted), applied_seq_(applied_seq) {}
  [[nodiscard]] bool promoted() const noexcept { return promoted_; }
  [[nodiscard]] std::uint64_t applied_seq() const noexcept {
    return applied_seq_;
  }

 private:
  bool promoted_;
  std::uint64_t applied_seq_;
};

/// mig.abort: drop the staging area for `id`. Also retires an orphaned
/// promotion (target promoted but the finish reply was lost, so the source
/// aborted and the directory still points at the source).
class MigAbortRequest {
 public:
  explicit MigAbortRequest(CollectionId id) : id_(id) {}
  [[nodiscard]] CollectionId id() const noexcept { return id_; }

 private:
  CollectionId id_;
};

}  // namespace weakset::placement::msg
