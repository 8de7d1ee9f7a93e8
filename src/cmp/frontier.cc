#include "cmp/frontier.h"

#include <algorithm>

namespace cmp {

namespace {

int64_t SegmentMemory(const Segment& seg) {
  int64_t bytes = seg.bundle.MemoryBytes() + seg.exact_left.MemoryBytes() +
                  seg.exact_right.MemoryBytes();
  if (seg.sub != nullptr) bytes += seg.sub->MemoryBytes();
  return bytes;
}

}  // namespace

int64_t Pending::MemoryBytes() const {
  int64_t bytes = static_cast<int64_t>(buffer.size()) * kBufferedBytes;
  for (const Segment& seg : segments) bytes += SegmentMemory(seg);
  return bytes;
}

std::unique_ptr<Pending> ClonePendingEmpty(const Pending& p, int nc) {
  auto clone = std::make_unique<Pending>();
  clone->attr = p.attr;
  clone->alive = p.alive;
  clone->segments.resize(p.segments.size());
  for (size_t i = 0; i < p.segments.size(); ++i) {
    const Segment& src = p.segments[i];
    Segment& dst = clone->segments[i];
    dst.counts.assign(nc, 0);
    dst.range_lo = src.range_lo;
    dst.range_hi = src.range_hi;
    dst.plan = src.plan;
    dst.bundle_fresh = src.bundle_fresh;
    switch (src.plan) {
      case PlanKind::kGrow:
        if (src.bundle_fresh) dst.bundle = src.bundle.CloneEmptyShape();
        break;
      case PlanKind::kPending:
        dst.sub = ClonePendingEmpty(*src.sub, nc);
        break;
      case PlanKind::kExact:
        dst.exact_split = src.exact_split;
        dst.exact_left = src.exact_left.CloneEmptyShape();
        dst.exact_right = src.exact_right.CloneEmptyShape();
        dst.exact_left_counts.assign(nc, 0);
        dst.exact_right_counts.assign(nc, 0);
        break;
    }
  }
  return clone;
}

void MergePendingInto(Pending* dst, const Pending& src) {
  dst->buffer.insert(dst->buffer.end(), src.buffer.begin(),
                     src.buffer.end());
  for (size_t i = 0; i < dst->segments.size(); ++i) {
    Segment& d = dst->segments[i];
    const Segment& s = src.segments[i];
    for (size_t c = 0; c < d.counts.size(); ++c) d.counts[c] += s.counts[c];
    switch (d.plan) {
      case PlanKind::kGrow:
        if (d.bundle_fresh) d.bundle.MergeSameShape(s.bundle);
        break;
      case PlanKind::kPending:
        MergePendingInto(d.sub.get(), *s.sub);
        break;
      case PlanKind::kExact:
        for (size_t c = 0; c < d.exact_left_counts.size(); ++c) {
          d.exact_left_counts[c] += s.exact_left_counts[c];
          d.exact_right_counts[c] += s.exact_right_counts[c];
        }
        d.exact_left.MergeSameShape(s.exact_left);
        d.exact_right.MergeSameShape(s.exact_right);
        break;
    }
  }
}

void SortBuffer(std::vector<BufferedRecord>* buffer) {
  std::sort(buffer->begin(), buffer->end(),
            [](const BufferedRecord& a, const BufferedRecord& b) {
              return a.value != b.value ? a.value < b.value : a.rid < b.rid;
            });
}

int64_t CountAliveIntervals(const Pending& p) {
  int64_t n = static_cast<int64_t>(p.alive.size());
  for (const Segment& seg : p.segments) {
    if (seg.plan == PlanKind::kPending) n += CountAliveIntervals(*seg.sub);
  }
  return n;
}

int64_t CountBufferedRecords(const Pending& p) {
  int64_t n = static_cast<int64_t>(p.buffer.size());
  for (const Segment& seg : p.segments) {
    if (seg.plan == PlanKind::kPending) n += CountBufferedRecords(*seg.sub);
  }
  return n;
}

}  // namespace cmp
