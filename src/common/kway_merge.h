// Loser-tree k-way merge of key-sorted cursors.
//
// The tracker's merge phase consumes k per-source tracking streams that are
// already key-sorted (delta coding requires sorted keys, and senders
// aggregate over sorted blocks), so merging them is an O(n log k) streaming
// problem, not an O(n log n) sort. A loser tree holds one comparison per
// level: each internal node caches the loser of its subtree's match, so
// replacing the winner replays exactly one leaf-to-root path.
//
// The tree caches every head as one 128-bit word, key << 64 | rank, where
// rank is the cursor index while the cursor is live and k + index once it is
// drained. Integer order on these words is the merge order: smaller key
// first, ties toward the lower cursor index, and a drained cursor after
// every live one (even a live key of ~0ULL). So the replay is one integer
// compare per level, selected with conditional moves, and the order is a
// strict total order: the merge is deterministic. Callers that need a
// secondary order (the tracker's (key, node)) order the cursors by it.
//
// Cursor requirements:
//   bool Valid() const;     // false once exhausted
//   uint64_t key() const;   // the head's key (Valid() required)
//   void Next();            // advance to the next element (Valid() required)
#ifndef TJ_COMMON_KWAY_MERGE_H_
#define TJ_COMMON_KWAY_MERGE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace tj {

template <typename Cursor>
class LoserTree {
 public:
  /// `cursors` is borrowed and must outlive the tree.
  explicit LoserTree(std::vector<Cursor>* cursors) : cursors_(cursors) {
    Rebuild();
  }

  /// Plays every match again from the cursors' heads, after the caller
  /// replaced or re-seated any of them, reusing the tree's storage.
  void Rebuild() {
    k_ = cursors_->size();
    tree_.resize(k_);
    top_ = k_ == 0 ? Drained(0) : Build(1);
  }

  /// True when every cursor is exhausted (or there are none).
  bool Done() const { return Rank(top_) >= k_; }

  /// The cursor currently holding the smallest head. Done() must be false.
  Cursor& Top() { return (*cursors_)[Rank(top_)]; }
  size_t TopIndex() const { return Rank(top_); }
  uint64_t TopKey() const { return static_cast<uint64_t>(top_ >> 64); }

  /// Advances the winning cursor and replays its leaf-to-root path.
  /// Done() must be false.
  void Pop() {
    Top().Next();
    Replay();
  }

  /// Replays the winning cursor's leaf-to-root path after the caller
  /// advanced it through Top(), any number of steps. Done() must be false.
  void Replay() {
    const size_t w = Rank(top_);
    Head h = HeadOf(w);
    for (size_t i = (k_ + w) / 2; i >= 1; i /= 2) {
      const Head other = tree_[i];
      const bool other_wins = other < h;
      tree_[i] = other_wins ? h : other;
      h = other_wins ? other : h;
    }
    top_ = h;
  }

 private:
  using Head = unsigned __int128;

  static size_t Rank(Head h) { return static_cast<size_t>(h); }
  /// Plays the matches below node `i` (cursor j's leaf is node k + j), each
  /// internal node keeping its loser, and returns the winner.
  Head Build(size_t i) {
    if (i >= k_) return HeadOf(i - k_);
    const Head a = Build(2 * i);
    const Head b = Build(2 * i + 1);
    tree_[i] = std::max(a, b);
    return std::min(a, b);
  }
  Head Drained(size_t j) const {
    return Head{~0ULL} << 64 | static_cast<uint64_t>(k_ + j);
  }
  Head HeadOf(size_t j) const {
    const Cursor& c = (*cursors_)[j];
    return c.Valid() ? Head{c.key()} << 64 | static_cast<uint64_t>(j)
                     : Drained(j);
  }

  std::vector<Cursor>* cursors_;
  size_t k_;
  /// The overall winner's head.
  Head top_;
  /// tree_[1..k-1] = the loser's head at each internal node.
  std::vector<Head> tree_;
};

}  // namespace tj

#endif  // TJ_COMMON_KWAY_MERGE_H_
