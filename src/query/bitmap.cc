#include "query/bitmap.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

namespace anatomy {

Bitmap::Bitmap(size_t num_bits)
    : num_bits_(num_bits), words_((num_bits + 63) / 64, 0) {}

void Bitmap::Set(size_t i) {
  ANATOMY_CHECK(i < num_bits_);
  words_[i >> 6] |= uint64_t{1} << (i & 63);
}

bool Bitmap::Test(size_t i) const {
  ANATOMY_CHECK(i < num_bits_);
  return (words_[i >> 6] >> (i & 63)) & 1;
}

void Bitmap::Reset(size_t num_bits) {
  num_bits_ = num_bits;
  words_.assign((num_bits + 63) / 64, 0);
}

void Bitmap::SetAll() {
  std::fill(words_.begin(), words_.end(), ~uint64_t{0});
  // Clear the bits beyond num_bits_ so Count() stays exact.
  const size_t tail = num_bits_ & 63;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (uint64_t{1} << tail) - 1;
  }
}

void Bitmap::OrWith(const Bitmap& other) {
  ANATOMY_CHECK(num_bits_ == other.num_bits_);
  for (size_t w = 0; w < words_.size(); ++w) words_[w] |= other.words_[w];
}

void Bitmap::AndWith(const Bitmap& other) {
  ANATOMY_CHECK(num_bits_ == other.num_bits_);
  for (size_t w = 0; w < words_.size(); ++w) words_[w] &= other.words_[w];
}

void Bitmap::OrWithAndNot(const Bitmap& hi, const Bitmap* lo) {
  ANATOMY_CHECK(num_bits_ == hi.num_bits_);
  if (lo == nullptr) {
    for (size_t w = 0; w < words_.size(); ++w) words_[w] |= hi.words_[w];
    return;
  }
  ANATOMY_CHECK(num_bits_ == lo->num_bits_);
  for (size_t w = 0; w < words_.size(); ++w) {
    words_[w] |= hi.words_[w] & ~lo->words_[w];
  }
}

uint64_t Bitmap::Count() const {
  uint64_t count = 0;
  for (const uint64_t w : words_) {
    count += static_cast<uint64_t>(std::popcount(w));
  }
  return count;
}

}  // namespace anatomy
