// The set of files a workload draws from: SPECsfs's active set, the web
// pages, a hot file, the Zipf-popular cluster files.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/zipf.h"
#include "fs/image_builder.h"

namespace ncache::workload {

struct FileSet {
  struct Entry {
    std::uint32_t ino = 0;  ///< also the file's NFS handle
    std::uint64_t size = 0;
    std::string name;  ///< in the root directory
  };
  /// One random read: a file and a chunk of it.
  struct Draw {
    const Entry* file;
    std::uint64_t offset;
    std::uint32_t length;
  };

  std::vector<Entry> entries;

  /// Adds `count` files of `size` bytes, named prefix0 .. prefix<count-1>,
  /// to the image and to the set.
  void add(fs::FsImageBuilder& image, std::string_view prefix, int count,
           std::uint64_t size) {
    for (int i = 0; i < count; ++i) {
      std::string name = std::string(prefix) + std::to_string(i);
      std::uint32_t ino = image.add_file(name, size);
      entries.push_back({ino, size, std::move(name)});
    }
  }

  /// Draws a file, sampled only when the set holds more than one (from
  /// `zipf` when given, else uniformly), then the offset
  /// chunk * below(max(1, size / chunk)) and the length
  /// min(chunk, size - offset).
  Draw draw(const ZipfSampler* zipf, Pcg32& rng, std::uint32_t chunk) const {
    std::size_t i = 0;
    if (entries.size() > 1) {
      i = zipf ? zipf->sample(rng) : rng.below(std::uint32_t(entries.size()));
    }
    const Entry& f = entries[i];
    std::uint64_t chunks = std::max<std::uint64_t>(1, f.size / chunk);
    std::uint64_t offset =
        std::uint64_t(chunk) * rng.below(std::uint32_t(chunks));
    return {&f, offset,
            std::uint32_t(std::min<std::uint64_t>(chunk, f.size - offset))};
  }
};

}  // namespace ncache::workload
