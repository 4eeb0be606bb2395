// IndexSource: the byte storage an InvertedIndex's posting payloads live
// in. Loaded indexes no longer copy each list's compressed payload into an
// owned string; instead every BlockPostingList holds a string_view slice
// into one shared IndexSource, which either
//
//   - owns a heap buffer (LoadIndexFromString, and the eager
//     LoadIndexFromFile that is also the portable fallback), or
//   - wraps an mmap'd read-only file region, so block payloads are backed
//     by the page cache and fault in lazily on first decode — untouched
//     lists never become resident at all.
//
// Either way the bytes are parsed the same: the loader reads the header and
// directories, and each block is validated on its first decode.
// The InvertedIndex keeps the source alive via shared_ptr for as long as
// any list views into it. Mapping is PRIVATE + read-only; the file must
// not be rewritten in place while mapped (write-then-rename replacement is
// safe — the mapping pins the old inode).

#ifndef FTS_INDEX_INDEX_SOURCE_H_
#define FTS_INDEX_INDEX_SOURCE_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"

namespace fts {

/// Access-pattern hint for a mapped source (madvise on POSIX; a no-op on
/// heap sources and platforms without madvise — hints are best-effort by
/// definition).
enum class AccessHint {
  /// Aggressive readahead: the caller will stream the region front to
  /// back (the load-time header parse).
  kSequential,
  /// Readahead is more likely to hurt than help: block-seek query traffic
  /// touches scattered pages.
  kRandom,
};

class IndexSource {
 public:
  /// Wraps a heap-owned copy of `data`.
  static std::shared_ptr<IndexSource> FromString(std::string data) {
    return std::shared_ptr<IndexSource>(new IndexSource(std::move(data)));
  }

  /// Reads `path` into a heap buffer of exactly the file's size (one
  /// allocation, no regrowth). IOError when the file cannot be opened or
  /// stat'ed, or when a read fails or ends short — never a truncated
  /// buffer the parser would later reject as Corruption.
  static StatusOr<std::shared_ptr<IndexSource>> ReadFile(const std::string& path);

  /// Memory-maps `path` read-only. Returns IOError when the file cannot be
  /// opened or mapped (distinct from Corruption: nothing was parsed yet),
  /// and Unsupported on platforms without mmap.
  static StatusOr<std::shared_ptr<IndexSource>> MapFile(const std::string& path);

  ~IndexSource();

  IndexSource(const IndexSource&) = delete;
  IndexSource& operator=(const IndexSource&) = delete;

  /// The full byte range of the source. Stable for the source's lifetime.
  std::string_view view() const {
    return mapped_ != nullptr ? std::string_view(mapped_, mapped_size_)
                              : std::string_view(owned_);
  }

  size_t size() const { return view().size(); }

  /// True when the bytes are a file mapping (page-cache resident) rather
  /// than a heap buffer.
  bool is_mapped() const { return mapped_ != nullptr; }

  /// Heap bytes the source holds: its buffer's capacity (0 when mapped).
  size_t resident_bytes() const { return is_mapped() ? 0 : owned_.capacity(); }

  /// Advises the kernel about the upcoming access pattern over the
  /// mapping. No-op (OK) for heap sources; IOError only if madvise itself
  /// rejects the call. Lazy loads advise kSequential for the header parse
  /// and kRandom for the block-seek serving phase that follows.
  Status Advise(AccessHint hint) const;

 private:
  explicit IndexSource(std::string data) : owned_(std::move(data)) {}
  IndexSource(const char* mapped, size_t size)
      : mapped_(mapped), mapped_size_(size) {}

  std::string owned_;               // heap mode
  const char* mapped_ = nullptr;    // mmap mode
  size_t mapped_size_ = 0;
};

}  // namespace fts

#endif  // FTS_INDEX_INDEX_SOURCE_H_
