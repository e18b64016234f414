#include "query/bitmap.h"

#include <atomic>
#include <bit>

#include "common/check.h"

namespace anatomy {

namespace {

/// Summary builds default on; bench_query_kernels' off-mode and the
/// bit-identity sweeps flip this per run.
std::atomic<bool> g_summary_enabled{true};

}  // namespace

void Bitmap::SetSummaryEnabled(bool enabled) {
  g_summary_enabled.store(enabled, std::memory_order_relaxed);
}

bool Bitmap::SummaryEnabled() {
  return g_summary_enabled.load(std::memory_order_relaxed);
}

Bitmap::Bitmap(size_t num_bits)
    : num_bits_(num_bits), words_((num_bits + 63) / 64, 0) {}

void Bitmap::Set(size_t i) {
  ANATOMY_CHECK(i < num_bits_);
  words_[i >> 6] |= uint64_t{1} << (i & 63);
  summary_ok_ = false;
}

bool Bitmap::Test(size_t i) const {
  ANATOMY_CHECK(i < num_bits_);
  return (words_[i >> 6] >> (i & 63)) & 1;
}

void Bitmap::ClearAll() {
  std::fill(words_.begin(), words_.end(), 0);
  summary_ok_ = false;
}

void Bitmap::Reset(size_t num_bits) {
  num_bits_ = num_bits;
  words_.assign((num_bits + 63) / 64, 0);
  summary_ok_ = false;
}

void Bitmap::SetAll() {
  std::fill(words_.begin(), words_.end(), ~uint64_t{0});
  // Clear the bits beyond num_bits_ so Count() stays exact.
  const size_t tail = num_bits_ & 63;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (uint64_t{1} << tail) - 1;
  }
  summary_ok_ = false;
}

void Bitmap::OrWith(const Bitmap& other) {
  ANATOMY_CHECK(num_bits_ == other.num_bits_);
  for (size_t w = 0; w < words_.size(); ++w) words_[w] |= other.words_[w];
  summary_ok_ = false;
}

void Bitmap::AndWith(const Bitmap& other) {
  ANATOMY_CHECK(num_bits_ == other.num_bits_);
  if (SummaryEnabled() && !words_.empty() &&
      words_.size() <= HierBitset::kMaxBits) {
    occupancy_.Init(static_cast<uint32_t>(words_.size()));
    uint32_t* leaf = occupancy_.leaf_words();
    uint64_t pc = 0;
    uint32_t nz = 0;
    for (size_t w = 0; w < words_.size(); ++w) {
      const uint64_t v = words_[w] & other.words_[w];
      words_[w] = v;
      if (v != 0) {
        leaf[w >> 5] |= 1u << (w & 31);
        ++nz;
        pc += static_cast<uint64_t>(std::popcount(v));
      }
    }
    occupancy_.RebuildUpper();
    popcount_ = pc;
    nz_words_ = nz;
    summary_ok_ = true;
    return;
  }
  for (size_t w = 0; w < words_.size(); ++w) words_[w] &= other.words_[w];
  summary_ok_ = false;
}

void Bitmap::AndNotWith(const Bitmap& other) {
  ANATOMY_CHECK(num_bits_ == other.num_bits_);
  for (size_t w = 0; w < words_.size(); ++w) words_[w] &= ~other.words_[w];
  summary_ok_ = false;
}

void Bitmap::OrWithAndNot(const Bitmap& hi, const Bitmap* lo) {
  ANATOMY_CHECK(num_bits_ == hi.num_bits_);
  summary_ok_ = false;
  if (lo == nullptr) {
    for (size_t w = 0; w < words_.size(); ++w) words_[w] |= hi.words_[w];
    return;
  }
  ANATOMY_CHECK(num_bits_ == lo->num_bits_);
  for (size_t w = 0; w < words_.size(); ++w) {
    words_[w] |= hi.words_[w] & ~lo->words_[w];
  }
}

void Bitmap::AssignAnd(const Bitmap& a, const Bitmap& b) {
  ANATOMY_CHECK(a.num_bits_ == b.num_bits_);
  num_bits_ = a.num_bits_;
  words_.resize(a.words_.size());
  if (SummaryEnabled() && !words_.empty() &&
      words_.size() <= HierBitset::kMaxBits) {
    occupancy_.Init(static_cast<uint32_t>(words_.size()));
    uint32_t* leaf = occupancy_.leaf_words();
    uint64_t pc = 0;
    uint32_t nz = 0;
    for (size_t w = 0; w < words_.size(); ++w) {
      const uint64_t v = a.words_[w] & b.words_[w];
      words_[w] = v;
      if (v != 0) {
        leaf[w >> 5] |= 1u << (w & 31);
        ++nz;
        pc += static_cast<uint64_t>(std::popcount(v));
      }
    }
    occupancy_.RebuildUpper();
    popcount_ = pc;
    nz_words_ = nz;
    summary_ok_ = true;
    return;
  }
  summary_ok_ = false;
  for (size_t w = 0; w < words_.size(); ++w) {
    words_[w] = a.words_[w] & b.words_[w];
  }
}

void Bitmap::BuildSummary() {
  summary_ok_ = false;
  if (!SummaryEnabled() || words_.empty() ||
      words_.size() > HierBitset::kMaxBits) {
    return;
  }
  occupancy_.Init(static_cast<uint32_t>(words_.size()));
  uint32_t* leaf = occupancy_.leaf_words();
  uint64_t pc = 0;
  uint32_t nz = 0;
  for (size_t w = 0; w < words_.size(); ++w) {
    const uint64_t v = words_[w];
    if (v != 0) {
      leaf[w >> 5] |= 1u << (w & 31);
      ++nz;
      pc += static_cast<uint64_t>(std::popcount(v));
    }
  }
  occupancy_.RebuildUpper();
  popcount_ = pc;
  nz_words_ = nz;
  summary_ok_ = true;
}

uint64_t Bitmap::Count() const {
  if (summary_ok_) return popcount_;
  uint64_t count = 0;
  for (const uint64_t w : words_) {
    count += static_cast<uint64_t>(std::popcount(w));
  }
  return count;
}

}  // namespace anatomy
