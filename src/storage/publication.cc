#include "storage/publication.h"

#include <algorithm>
#include <cstring>

namespace anatomy {

namespace {

// Manifest page layout, int32 slots:
//   [0] magic 'ANAT'   [1] version   [2] next chain page (-1 = end)
//   [3] number of page-id entries in THIS page
// root page only:
//   [4] l   [5] qit fields   [6] st fields
//   [7..8] qit records (lo, hi)   [9..10] st records (lo, hi)
//   [11] qit total page count     [12] st total page count
// entries (page ids of the QIT followed by the ST) start at kRootEntrySlot on
// the root and kContEntrySlot on continuations.
constexpr int32_t kManifestMagic = 0x414E4154;  // 'ANAT'
constexpr int32_t kManifestVersion = 1;
constexpr size_t kSlots = kPageSize / sizeof(int32_t);
constexpr size_t kRootEntrySlot = 13;
constexpr size_t kContEntrySlot = 4;

int32_t Slot(const Page& page, size_t slot) {
  return page.ReadInt32(slot * sizeof(int32_t));
}
void SetSlot(Page& page, size_t slot, int32_t v) {
  page.WriteInt32(slot * sizeof(int32_t), v);
}
void SetSlot64(Page& page, size_t slot, uint64_t v) {
  SetSlot(page, slot, static_cast<int32_t>(v & 0xFFFFFFFFu));
  SetSlot(page, slot + 1, static_cast<int32_t>(v >> 32));
}
uint64_t Slot64(const Page& page, size_t slot) {
  const uint64_t lo = static_cast<uint32_t>(Slot(page, slot));
  const uint64_t hi = static_cast<uint32_t>(Slot(page, slot + 1));
  return lo | (hi << 32);
}

Status ReadWithRetry(Disk* disk, const RetryPolicy& retry, PageId id,
                     Page& out) {
  return RunWithRetry(retry, nullptr,
                      [&] { return disk->ReadPage(id, out); });
}

Status WriteWithRetry(Disk* disk, const RetryPolicy& retry, PageId id,
                      const Page& in) {
  return RunWithRetry(retry, nullptr,
                      [&] { return disk->WritePage(id, in); });
}

/// The geometry checks every reader of a manifest relies on: records have
/// a width that fits a page, and the listed pages can hold the claimed
/// record count. `fields` is checked first: RecordsPerPage(0) divides by
/// zero.
Status CheckFileGeometry(const PublishedFileMeta& meta, const char* name) {
  const size_t per_page =
      meta.fields == 0 ? 0 : RecordPageLayout::RecordsPerPage(meta.fields);
  if (per_page == 0) {
    return Status::DataLoss(std::string(name) + " records claim " +
                            std::to_string(meta.fields) +
                            " fields, which no page can hold");
  }
  if (meta.records > meta.pages.size() * static_cast<uint64_t>(per_page)) {
    return Status::DataLoss(
        std::string(name) + " claims " + std::to_string(meta.records) +
        " records but its " + std::to_string(meta.pages.size()) +
        " pages hold at most " +
        std::to_string(meta.pages.size() * static_cast<uint64_t>(per_page)));
  }
  return Status::OK();
}

}  // namespace

StatusOr<StorageManifest> CommitPublication(Disk* disk, const RecordFile& qit,
                                            const RecordFile& st, int32_t l,
                                            const RetryPolicy& retry) {
  StorageManifest manifest;
  manifest.l = l;
  manifest.qit = {static_cast<uint32_t>(qit.fields_per_record()),
                  qit.num_records(), qit.pages()};
  manifest.st = {static_cast<uint32_t>(st.fields_per_record()),
                 st.num_records(), st.pages()};

  std::vector<PageId> entries = manifest.qit.pages;
  entries.insert(entries.end(), manifest.st.pages.begin(),
                 manifest.st.pages.end());

  // Chunk the entry list: the root takes the first kRootEntrySlot..kSlots
  // slots, continuations the rest. All chain pages are allocated up front
  // (metadata, no I/O) so each page can name its successor before any write.
  std::vector<std::pair<size_t, size_t>> chunks;  // [begin, end) into entries
  size_t begin = 0;
  size_t room = kSlots - kRootEntrySlot;
  do {
    const size_t end = std::min(entries.size(), begin + room);
    chunks.emplace_back(begin, end);
    begin = end;
    room = kSlots - kContEntrySlot;
  } while (begin < entries.size());

  manifest.manifest_pages.reserve(chunks.size());
  for (size_t i = 0; i < chunks.size(); ++i) {
    manifest.manifest_pages.push_back(disk->AllocatePage());
  }
  manifest.root = manifest.manifest_pages.front();

  // Write tail-to-head: the publication exists only once the root lands.
  for (size_t i = chunks.size(); i-- > 0;) {
    Page page;
    page.Clear();
    SetSlot(page, 0, kManifestMagic);
    SetSlot(page, 1, kManifestVersion);
    SetSlot(page, 2,
            i + 1 < chunks.size()
                ? static_cast<int32_t>(manifest.manifest_pages[i + 1])
                : -1);
    const auto [lo, hi] = chunks[i];
    SetSlot(page, 3, static_cast<int32_t>(hi - lo));
    size_t slot = kContEntrySlot;
    if (i == 0) {
      SetSlot(page, 4, l);
      SetSlot(page, 5, static_cast<int32_t>(manifest.qit.fields));
      SetSlot(page, 6, static_cast<int32_t>(manifest.st.fields));
      SetSlot64(page, 7, manifest.qit.records);
      SetSlot64(page, 9, manifest.st.records);
      SetSlot(page, 11, static_cast<int32_t>(manifest.qit.pages.size()));
      SetSlot(page, 12, static_cast<int32_t>(manifest.st.pages.size()));
      slot = kRootEntrySlot;
    }
    for (size_t e = lo; e < hi; ++e, ++slot) {
      SetSlot(page, slot, static_cast<int32_t>(entries[e]));
    }
    ANATOMY_RETURN_IF_ERROR(
        WriteWithRetry(disk, retry, manifest.manifest_pages[i], page));
  }
  return manifest;
}

Status ProbePublicationRoot(Disk* disk, PageId root) {
  if (root == kInvalidPageId) {
    return Status::FailedPrecondition("no publication root to probe");
  }
  Page page;
  ANATOMY_RETURN_IF_ERROR(disk->ReadPage(root, page));
  if (Slot(page, 0) != kManifestMagic) {
    return Status::DataLoss("publication root lost its manifest signature");
  }
  return Status::OK();
}

StatusOr<StorageManifest> LoadPublication(Disk* disk, PageId root,
                                          const RetryPolicy& retry) {
  StorageManifest manifest;
  manifest.root = root;

  std::vector<PageId> entries;
  PageId next = root;
  bool is_root = true;
  size_t qit_page_count = 0;
  size_t st_page_count = 0;
  while (next != static_cast<PageId>(-1)) {
    Page page;
    ANATOMY_RETURN_IF_ERROR(ReadWithRetry(disk, retry, next, page));
    if (Slot(page, 0) != kManifestMagic) {
      return Status::DataLoss("page " + std::to_string(next) +
                              " is not a manifest page");
    }
    if (Slot(page, 1) != kManifestVersion) {
      return Status::Unimplemented("unsupported manifest version " +
                                   std::to_string(Slot(page, 1)));
    }
    manifest.manifest_pages.push_back(next);
    const size_t count = static_cast<size_t>(Slot(page, 3));
    size_t slot = kContEntrySlot;
    if (is_root) {
      manifest.l = Slot(page, 4);
      manifest.qit.fields = static_cast<uint32_t>(Slot(page, 5));
      manifest.st.fields = static_cast<uint32_t>(Slot(page, 6));
      manifest.qit.records = Slot64(page, 7);
      manifest.st.records = Slot64(page, 9);
      qit_page_count = static_cast<size_t>(Slot(page, 11));
      st_page_count = static_cast<size_t>(Slot(page, 12));
      slot = kRootEntrySlot;
      is_root = false;
    }
    if (count > kSlots - slot) {
      return Status::DataLoss("manifest page " + std::to_string(next) +
                              " claims an impossible entry count");
    }
    for (size_t e = 0; e < count; ++e, ++slot) {
      entries.push_back(static_cast<PageId>(Slot(page, slot)));
    }
    next = static_cast<PageId>(Slot(page, 2));
    if (manifest.manifest_pages.size() > entries.capacity() + kSlots) {
      return Status::DataLoss("manifest chain does not terminate");
    }
  }
  if (entries.size() != qit_page_count + st_page_count) {
    return Status::DataLoss(
        "manifest chain lists " + std::to_string(entries.size()) +
        " pages, header claims " +
        std::to_string(qit_page_count + st_page_count));
  }
  manifest.qit.pages.assign(entries.begin(),
                            entries.begin() + static_cast<ptrdiff_t>(qit_page_count));
  manifest.st.pages.assign(entries.begin() + static_cast<ptrdiff_t>(qit_page_count),
                           entries.end());
  ANATOMY_RETURN_IF_ERROR(CheckFileGeometry(manifest.qit, "QIT"));
  ANATOMY_RETURN_IF_ERROR(CheckFileGeometry(manifest.st, "ST"));
  return manifest;
}

PublishedRecordReader::PublishedRecordReader(Disk* disk,
                                             const PublishedFileMeta& meta,
                                             const RetryPolicy& retry)
    : disk_(disk), meta_(meta), retry_(retry), fields_(meta.fields) {
  status_ = CheckFileGeometry(meta, "published file");
  if (status_.ok()) {
    values_.resize(RecordPageLayout::RecordsPerPage(fields_) * fields_);
  }
}

bool PublishedRecordReader::LoadNextPage() {
  const PageId id = meta_.pages[page_index_++];
  Page page;
  status_ = ReadWithRetry(disk_, retry_, id, page);
  if (!status_.ok()) return false;
  const int32_t count = page.ReadInt32(0);
  if (count < 0 || static_cast<size_t>(count) * fields_ > values_.size()) {
    status_ = Status::DataLoss("page " + std::to_string(id) +
                               " claims more records than fit");
    return false;
  }
  if (records_read_ + static_cast<uint64_t>(count) > meta_.records) {
    status_ = Status::DataLoss("published file holds more than the " +
                               std::to_string(meta_.records) +
                               " records its manifest claims");
    return false;
  }
  std::memcpy(values_.data(),
              page.bytes.data() + RecordPageLayout::RecordOffset(0, fields_),
              static_cast<size_t>(count) * fields_ * sizeof(int32_t));
  in_page_ = static_cast<size_t>(count);
  next_in_page_ = 0;
  return true;
}

bool PublishedRecordReader::Next() {
  while (next_in_page_ == in_page_) {
    if (!status_.ok()) return false;
    if (page_index_ == meta_.pages.size()) {
      if (records_read_ != meta_.records) {
        status_ = Status::DataLoss("published file holds " +
                                   std::to_string(records_read_) +
                                   " records, manifest claims " +
                                   std::to_string(meta_.records));
      }
      return false;
    }
    if (!LoadNextPage()) return false;
  }
  current_ = next_in_page_++ * fields_;
  ++records_read_;
  return true;
}

Status VerifyPublication(Disk* disk, const StorageManifest& manifest,
                         const RetryPolicy& retry) {
  // Re-load the chain from the root: this re-reads (and checksum-verifies)
  // every manifest page and re-derives the page lists independently.
  ANATOMY_ASSIGN_OR_RETURN(StorageManifest loaded,
                           LoadPublication(disk, manifest.root, retry));
  if (loaded.qit.pages != manifest.qit.pages ||
      loaded.st.pages != manifest.st.pages) {
    return Status::DataLoss("manifest chain does not match the publication");
  }
  if (loaded.st.fields != 3) {
    return Status::FailedPrecondition("ST records must be [group, value, count]");
  }

  // Group-file consistency: per-group QIT cardinality must equal the group's
  // ST count sum, groups must match across the two files, and each group
  // must satisfy the l-diversity bound the manifest claims. Tallies are
  // indexed by group id, which must lie in [0, QIT records); they grow with
  // the largest id seen.
  const uint64_t id_limit = loaded.qit.records;
  struct GroupTally {
    uint64_t qit_size = 0;
    uint64_t st_size = 0;
    uint64_t max_count = 0;
  };
  std::vector<GroupTally> groups;
  // The tally of group `g`, or null when g is out of range.
  auto tally = [&](int32_t g) -> GroupTally* {
    if (g < 0 || static_cast<uint64_t>(g) >= id_limit) return nullptr;
    if (static_cast<size_t>(g) >= groups.size()) {
      groups.resize(static_cast<size_t>(g) + 1);
    }
    return &groups[static_cast<size_t>(g)];
  };
  auto out_of_range = [&](const char* file, int32_t g) {
    return Status::FailedPrecondition(
        std::string(file) + " record with group id " + std::to_string(g) +
        " outside [0, " + std::to_string(id_limit) + ")");
  };

  const size_t gid_field = loaded.qit.fields - 1;
  PublishedRecordReader qit(disk, loaded.qit, retry);
  while (qit.Next()) {
    const int32_t gid = qit.record()[gid_field];
    GroupTally* g = tally(gid);
    if (g == nullptr) return out_of_range("QIT", gid);
    ++g->qit_size;
  }
  ANATOMY_RETURN_IF_ERROR(qit.status());
  PublishedRecordReader st(disk, loaded.st, retry);
  while (st.Next()) {
    const std::span<const int32_t> rec = st.record();
    if (rec[2] <= 0) {
      return Status::FailedPrecondition("ST record with non-positive count");
    }
    GroupTally* g = tally(rec[0]);
    if (g == nullptr) return out_of_range("ST", rec[0]);
    const uint64_t count = static_cast<uint64_t>(rec[2]);
    g->st_size += count;
    g->max_count = std::max(g->max_count, count);
  }
  ANATOMY_RETURN_IF_ERROR(st.status());

  size_t qit_groups = 0;
  size_t st_groups = 0;
  for (const GroupTally& g : groups) {
    qit_groups += g.qit_size > 0;
    st_groups += g.st_size > 0;
  }
  if (qit_groups != st_groups) {
    return Status::FailedPrecondition(
        "QIT has " + std::to_string(qit_groups) + " groups, ST has " +
        std::to_string(st_groups));
  }
  for (size_t gid = 0; gid < groups.size(); ++gid) {
    const GroupTally& g = groups[gid];
    if (g.qit_size == 0) continue;
    if (g.st_size == 0) {
      return Status::FailedPrecondition("group " + std::to_string(gid) +
                                        " missing from the ST");
    }
    if (g.st_size != g.qit_size) {
      return Status::FailedPrecondition(
          "group " + std::to_string(gid) + ": QIT has " +
          std::to_string(g.qit_size) + " tuples, ST counts sum to " +
          std::to_string(g.st_size));
    }
    if (manifest.l > 0 &&
        g.max_count * static_cast<uint64_t>(manifest.l) > g.st_size) {
      return Status::FailedPrecondition(
          "group " + std::to_string(gid) + " violates " +
          std::to_string(manifest.l) + "-diversity");
    }
  }
  return Status::OK();
}

Status DiscardPublication(Disk* disk, BufferPool* pool,
                          const StorageManifest& manifest) {
  (void)disk;  // pages are freed through the pool, which drops cached frames
  for (PageId id : manifest.qit.pages) ANATOMY_RETURN_IF_ERROR(pool->Discard(id));
  for (PageId id : manifest.st.pages) ANATOMY_RETURN_IF_ERROR(pool->Discard(id));
  for (PageId id : manifest.manifest_pages) {
    ANATOMY_RETURN_IF_ERROR(pool->Discard(id));
  }
  return Status::OK();
}

}  // namespace anatomy
