#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/macros.h"

/// \file blob.h
/// Payloads stored in the simulated storage services. A Blob either carries
/// real bytes (query data the engine must actually process) or is synthetic —
/// a size without materialized content — so microbenchmarks can move hundreds
/// of GiB/s without allocating them.

namespace skyrise::storage {

class Blob {
 public:
  Blob() = default;

  static Blob FromString(std::string data) {
    Blob b;
    b.size_ = static_cast<int64_t>(data.size());
    b.data_ = std::make_shared<const std::string>(std::move(data));
    return b;
  }

  static Blob Synthetic(int64_t size) {
    SKYRISE_CHECK(size >= 0);
    Blob b;
    b.size_ = size;
    return b;
  }

  int64_t size() const { return size_; }
  bool is_synthetic() const { return data_ == nullptr; }

  /// Real content; must not be called on synthetic blobs.
  const std::string& data() const {
    SKYRISE_CHECK(data_ != nullptr);
    return *data_;
  }

  /// Byte range [offset, offset+length). Clamps to the blob end. Synthetic
  /// blobs slice to synthetic blobs.
  Blob Slice(int64_t offset, int64_t length) const {
    SKYRISE_CHECK(offset >= 0 && length >= 0);
    const int64_t begin = std::min(offset, size_);
    const int64_t len = std::min(length, size_ - begin);
    if (is_synthetic()) return Synthetic(len);
    return FromString(data_->substr(static_cast<size_t>(begin),
                                    static_cast<size_t>(len)));
  }

 private:
  int64_t size_ = 0;
  std::shared_ptr<const std::string> data_;
};

}  // namespace skyrise::storage
