#ifndef PIET_MOVING_BLOCK_STORE_H_
#define PIET_MOVING_BLOCK_STORE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "geometry/box.h"
#include "moving/moft_columns.h"
#include "temporal/interval.h"

namespace piet::moving {

/// Knobs of the chunked block-store MOFT core. `enabled()` decides whether
/// sealing a Moft builds a MoftBlockStore at all; the default (all knobs
/// off) keeps the single sealed-SoA layout and the zero-copy fast paths of
/// the pre-block-store engine bit-for-bit.
struct BlockOptions {
  /// Target rows per block (blocks close at the next object-span
  /// boundary; one object never splits across blocks). 0 = one block.
  size_t block_rows = 0;
  /// Encode sealed blocks with the lossless block codec (delta-of-delta
  /// style timestamps, predictive-XOR coordinates, dictionary oids).
  bool compress = false;
  /// >= 0 enables trajectory-aware collinearity pruning at seal with this
  /// synchronized-distance epsilon (0 = drop only exactly-redundant
  /// interior samples, lossless under LIT semantics). < 0 = off.
  double simplify_eps = -1.0;
  /// Directory for Moft::SpillToDisk (defaults to PIET_SPILL_DIR, then
  /// the system temp directory).
  std::string spill_dir;

  bool enabled() const {
    return block_rows > 0 || compress || simplify_eps >= 0.0;
  }

  /// PIET_BLOCK_ROWS / PIET_COMPRESS / PIET_SIMPLIFY_EPS / PIET_SPILL_DIR,
  /// read once per process.
  static BlockOptions FromEnv();
};

/// Per-block zonemap + row/span directory entry. Row and span coordinates
/// are global (over the whole logical table); blocks partition both ranges
/// in ascending order.
struct BlockMeta {
  size_t row_begin = 0;
  size_t row_end = 0;
  size_t span_begin = 0;
  size_t span_end = 0;
  ObjectId oid_min = 0;
  ObjectId oid_max = 0;
  double t_min = 0.0;
  double t_max = 0.0;
  double x_min = 0.0;
  double x_max = 0.0;
  double y_min = 0.0;
  double y_max = 0.0;

  size_t rows() const { return row_end - row_begin; }
};

/// Conjunctive zonemap predicate: a block whose meta cannot intersect the
/// given closed time window and/or bounding box is skipped wholesale.
struct ZoneFilter {
  std::optional<temporal::Interval> window;
  std::optional<geometry::BoundingBox> bbox;

  bool Admits(const BlockMeta& m) const {
    if (window && (m.t_max < window->begin.seconds ||
                   window->end.seconds < m.t_min)) {
      return false;
    }
    if (bbox && (m.x_max < bbox->min_x || bbox->max_x < m.x_min ||
                 m.y_max < bbox->min_y || bbox->max_y < m.y_min)) {
      return false;
    }
    return true;
  }
};

/// Chunk-local I/O accounting of one block-iterating scan; merged into
/// EngineStats / obs counters by the consumer.
struct BlockIoStats {
  size_t blocks_pinned = 0;
  size_t blocks_decoded = 0;  ///< Pins that ran the codec (cold blocks).
  size_t blocks_skipped = 0;  ///< Blocks a ZoneFilter ruled out.

  BlockIoStats& operator+=(const BlockIoStats& o) {
    blocks_pinned += o.blocks_pinned;
    blocks_decoded += o.blocks_decoded;
    blocks_skipped += o.blocks_skipped;
    return *this;
  }
};

/// Immutable store of span-aligned MOFT blocks. Each block is either raw
/// in-memory columns (hot: pins are zero-copy), codec-compressed bytes in
/// memory, or a slice of an mmap-backed file (cold: pins decode into a
/// pooled scratch buffer). Rows keep the global (oid, t) sort; block b
/// covers global rows [meta(b).row_begin, meta(b).row_end) and its pinned
/// data presents the same rows re-based at 0 with block-local spans.
///
/// Thread safety: all const methods (including Pin) are safe to call
/// concurrently; the scratch pool is internally synchronized.
class MoftBlockStore {
 public:
  /// RAII handle to one block's decoded columns. For raw blocks `data()`
  /// borrows the block's own storage (zero-copy); for compressed/mapped
  /// blocks it borrows a pooled scratch buffer returned to the pool on
  /// destruction. Must not outlive the store.
  class Pin {
   public:
    Pin() = default;
    Pin(Pin&& o) noexcept
        : store_(o.store_), data_(o.data_), scratch_(std::move(o.scratch_)),
          decoded_(o.decoded_) {
      o.store_ = nullptr;
      o.data_ = nullptr;
    }
    Pin& operator=(Pin&& o) noexcept;
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
    ~Pin();

    const MoftColumns& data() const { return *data_; }
    /// True when this pin ran the codec (cold path).
    bool decoded() const { return decoded_; }

   private:
    friend class MoftBlockStore;
    /// Releases the scratch (if any) and the live-pin count exactly once.
    void Unpin();
    const MoftBlockStore* store_ = nullptr;
    const MoftColumns* data_ = nullptr;
    std::unique_ptr<MoftColumns> scratch_;
    bool decoded_ = false;
  };

  MoftBlockStore() = default;
  MoftBlockStore(MoftBlockStore&&) noexcept = default;
  MoftBlockStore& operator=(MoftBlockStore&&) noexcept = default;
  MoftBlockStore(const MoftBlockStore&) = delete;
  MoftBlockStore& operator=(const MoftBlockStore&) = delete;

  /// Chunks sealed columns into span-aligned blocks of ~opts.block_rows
  /// rows, compressing each when opts.compress. `cols` must be sealed
  /// (sorted, spans built); pruning is the caller's job (Moft applies it
  /// before building). The store owns all its bytes — the source columns
  /// may be released afterwards.
  static MoftBlockStore Build(const MoftColumns& cols,
                              const BlockOptions& opts);

  /// The zonemap of sealed spans [span_begin, span_end) of `cols`.
  static BlockMeta ComputeMeta(const MoftColumns& cols, size_t span_begin,
                               size_t span_end);

  size_t num_blocks() const { return blocks_.size(); }
  size_t total_rows() const { return total_rows_; }
  size_t total_spans() const { return total_spans_; }
  const BlockMeta& meta(size_t b) const { return blocks_[b]->meta; }
  bool compressed() const { return compressed_; }
  bool mapped() const { return mapped_file_ != nullptr; }

  /// Payload bytes at rest (compressed or raw column bytes, excluding
  /// metas) and the equivalent raw SoA footprint (32 bytes per row).
  size_t stored_bytes() const { return stored_bytes_; }
  size_t raw_bytes() const { return total_rows_ * 4 * sizeof(double); }

  /// Outstanding Pin handles (telemetry gauge; 0 once readers finish).
  int64_t live_pins() const;

  /// Index of the block containing global row / global span (binary
  /// search; row < total_rows(), span < total_spans()).
  size_t BlockOfRow(size_t row) const;
  size_t BlockOfSpan(size_t span) const;

  Pin PinBlock(size_t b) const;

  /// Decodes every block into one contiguous whole-table columns object
  /// (global rows and spans). Preserves out->seal_epoch.
  void MaterializeInto(MoftColumns* out) const;

  /// On-disk round trip: a directory of zonemaps plus one codec payload
  /// per block. Open maps the file and serves pins straight from the
  /// mapping, so only the pages of the blocks a query touches fault in.
  Status Save(const std::string& path) const;
  static Result<MoftBlockStore> Open(const std::string& path);

 private:
  struct Block {
    BlockMeta meta;
    /// Exactly one of: raw in-memory columns (hot), owned payload bytes,
    /// or a payload slice of the mapped file.
    std::unique_ptr<MoftColumns> raw;
    std::string payload;
    std::string_view mapped_payload;

    std::string_view PayloadView() const {
      return mapped_payload.data() != nullptr ? mapped_payload
                                              : std::string_view(payload);
    }
  };

  class MappedFile;

  std::unique_ptr<MoftColumns> AcquireScratch() const;
  void ReleaseScratch(std::unique_ptr<MoftColumns> scratch) const;

  std::vector<std::unique_ptr<Block>> blocks_;
  size_t total_rows_ = 0;
  size_t total_spans_ = 0;
  size_t stored_bytes_ = 0;
  bool compressed_ = false;
  std::shared_ptr<MappedFile> mapped_file_;

  /// Reusable decode buffers, shared by all pins of this store (behind a
  /// pointer so the store stays movable despite the mutex).
  struct ScratchPool {
    std::mutex mu;
    std::vector<std::unique_ptr<MoftColumns>> buffers;
    /// Outstanding pins of this store (raw and decoded alike).
    std::atomic<int64_t> live_pins{0};
  };
  std::unique_ptr<ScratchPool> pool_ = std::make_unique<ScratchPool>();
};

/// Uniform per-block access to a Moft's sealed storage: either a real
/// MoftBlockStore (possibly compressed or mmap-backed) or, when block
/// storage is disabled, the whole-table columns presented as one synthetic
/// block. Query fan-outs iterate ranges of global rows/spans through this
/// facade; blocks a ZoneFilter rules out are skipped wholesale (and their
/// rows never scanned), cold blocks are pinned (decoded) only while the
/// callback runs. Borrows the Moft's storage — must not outlive it or
/// span a reseal.
class TableBlocks {
 public:
  TableBlocks(const MoftColumns* hot, const MoftBlockStore* store)
      : hot_(hot), store_(store) {}

  size_t total_rows() const {
    return store_ != nullptr ? store_->total_rows() : hot_->size();
  }
  size_t total_spans() const {
    return store_ != nullptr ? store_->total_spans() : hot_->spans.size();
  }
  size_t num_blocks() const {
    return store_ != nullptr ? store_->num_blocks() : 1;
  }

  /// Calls fn(data, local_begin, local_end) for each admitted block
  /// intersecting global rows [begin, end), ascending. `data` is the
  /// block's columns with rows re-based at 0; chunk boundaries are in
  /// global row coordinates, so the concatenation over all chunks visits
  /// exactly the serial row sequence. fn returns Status; the first
  /// failure stops the walk.
  template <typename Fn>
  Status ForEachRowRange(size_t begin, size_t end, const ZoneFilter& filter,
                         BlockIoStats* io, Fn&& fn) const {
    if (store_ == nullptr) {
      if (begin < end) {
        return fn(*hot_, begin, end);
      }
      return Status::OK();
    }
    for (size_t b = begin < end ? store_->BlockOfRow(begin) : num_blocks();
         b < store_->num_blocks() && store_->meta(b).row_begin < end; ++b) {
      const BlockMeta& m = store_->meta(b);
      const size_t gb = begin > m.row_begin ? begin : m.row_begin;
      const size_t ge = end < m.row_end ? end : m.row_end;
      if (gb >= ge) {
        continue;
      }
      if (!filter.Admits(m)) {
        ++io->blocks_skipped;
        continue;
      }
      MoftBlockStore::Pin pin = store_->PinBlock(b);
      ++io->blocks_pinned;
      io->blocks_decoded += pin.decoded() ? 1 : 0;
      PIET_RETURN_NOT_OK(fn(pin.data(), gb - m.row_begin, ge - m.row_begin));
    }
    return Status::OK();
  }

  /// Calls fn(data, span) for each object span with global index in
  /// [span_begin, span_end) whose block a ZoneFilter admits, ascending.
  /// `span` is block-local (valid against `data`); one object is never
  /// split across blocks, so fn always sees the object's full history.
  template <typename Fn>
  Status ForEachSpan(size_t span_begin, size_t span_end,
                     const ZoneFilter& filter, BlockIoStats* io,
                     Fn&& fn) const {
    if (store_ == nullptr) {
      for (size_t s = span_begin; s < span_end; ++s) {
        PIET_RETURN_NOT_OK(fn(*hot_, hot_->spans[s]));
      }
      return Status::OK();
    }
    for (size_t b = span_begin < span_end ? store_->BlockOfSpan(span_begin)
                                          : num_blocks();
         b < store_->num_blocks() && store_->meta(b).span_begin < span_end;
         ++b) {
      const BlockMeta& m = store_->meta(b);
      const size_t sb = span_begin > m.span_begin ? span_begin : m.span_begin;
      const size_t se = span_end < m.span_end ? span_end : m.span_end;
      if (sb >= se) {
        continue;
      }
      if (!filter.Admits(m)) {
        ++io->blocks_skipped;
        continue;
      }
      MoftBlockStore::Pin pin = store_->PinBlock(b);
      ++io->blocks_pinned;
      io->blocks_decoded += pin.decoded() ? 1 : 0;
      const MoftColumns& data = pin.data();
      for (size_t s = sb; s < se; ++s) {
        PIET_RETURN_NOT_OK(fn(data, data.spans[s - m.span_begin]));
      }
    }
    return Status::OK();
  }

 private:
  const MoftColumns* hot_;
  const MoftBlockStore* store_;
};

}  // namespace piet::moving

#endif  // PIET_MOVING_BLOCK_STORE_H_
