#include "proto/frame.h"

#include <new>

#include "netbuf/slab_cache.h"

namespace ncache::proto {

void FrameDeleter::operator()(Frame* f) const noexcept {
  f->~Frame();
  netbuf::RecyclingAllocator<Frame>{}.deallocate(f, 1);
}

FrameBox box_frame(Frame&& frame) {
  Frame* f = netbuf::RecyclingAllocator<Frame>{}.allocate(1);
  return FrameBox(::new (f) Frame(std::move(frame)));
}

}  // namespace ncache::proto
