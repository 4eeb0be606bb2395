#include "index/index_source.h"

#if defined(__unix__) || defined(__APPLE__)
#define FTS_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#endif

#if !FTS_HAVE_MMAP
#include <fstream>
#endif

namespace fts {

#if FTS_HAVE_MMAP

StatusOr<std::shared_ptr<IndexSource>> IndexSource::ReadFile(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open for read: " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st = {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError("cannot stat: " + path + ": " + std::strerror(err));
  }
  std::string data(static_cast<size_t>(st.st_size), '\0');
  size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::read(fd, data.data() + done, data.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      // Read errno before close() can overwrite it.
      const std::string why = n < 0 ? std::strerror(errno)
                                    : "ended after " + std::to_string(done) + " of " +
                                          std::to_string(data.size()) + " bytes";
      ::close(fd);
      return Status::IOError("read failed: " + path + ": " + why);
    }
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  return FromString(std::move(data));
}

StatusOr<std::shared_ptr<IndexSource>> IndexSource::MapFile(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open for read: " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError("cannot stat: " + path + ": " + std::strerror(err));
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    // mmap of length 0 is EINVAL; an empty file cannot be a valid index
    // anyway, but that is the parser's verdict (Corruption), not an IO
    // failure — hand it an empty heap source.
    ::close(fd);
    return std::shared_ptr<IndexSource>(FromString(std::string()));
  }
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  const int map_err = errno;
  ::close(fd);  // the mapping keeps its own reference to the inode
  if (addr == MAP_FAILED) {
    return Status::IOError("cannot mmap: " + path + ": " +
                           std::strerror(map_err));
  }
  return std::shared_ptr<IndexSource>(
      new IndexSource(static_cast<const char*>(addr), size));
}

IndexSource::~IndexSource() {
  if (mapped_ != nullptr) {
    ::munmap(const_cast<char*>(mapped_), mapped_size_);
  }
}

Status IndexSource::Advise(AccessHint hint) const {
  if (mapped_ == nullptr || mapped_size_ == 0) return Status::OK();
  const int advice =
      hint == AccessHint::kSequential ? MADV_SEQUENTIAL : MADV_RANDOM;
  if (::madvise(const_cast<char*>(mapped_), mapped_size_, advice) != 0) {
    return Status::IOError(std::string("madvise failed: ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

#else  // !FTS_HAVE_MMAP

StatusOr<std::shared_ptr<IndexSource>> IndexSource::ReadFile(
    const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) return Status::IOError("cannot open for read: " + path);
  const std::streamoff size = f.tellg();
  if (size < 0) return Status::IOError("cannot size: " + path);
  std::string data(static_cast<size_t>(size), '\0');
  f.seekg(0);
  f.read(data.data(), size);
  if (f.gcount() != size) return Status::IOError("short read: " + path);
  return FromString(std::move(data));
}

StatusOr<std::shared_ptr<IndexSource>> IndexSource::MapFile(
    const std::string& path) {
  (void)path;
  return Status::Unsupported("mmap index loading is not available on this platform");
}

IndexSource::~IndexSource() = default;

Status IndexSource::Advise(AccessHint hint) const {
  (void)hint;
  return Status::OK();
}

#endif  // FTS_HAVE_MMAP

}  // namespace fts
