#include "anatomy/bundle.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/string_util.h"
#include "table/csv.h"
#include "table/schema_io.h"

namespace anatomy {

namespace {

constexpr char kQitSchemaFile[] = "/qit_schema.txt";
constexpr char kStSchemaFile[] = "/st_schema.txt";
constexpr char kQitFile[] = "/qit.csv";
constexpr char kStFile[] = "/st.csv";
constexpr char kManifestFile[] = "/manifest.txt";

StatusOr<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

}  // namespace

std::string SerializeManifest(const PublicationManifest& manifest) {
  std::ostringstream os;
  os << "format_version=" << manifest.format_version << "\n"
     << "l=" << manifest.l << "\n"
     << "rows=" << manifest.rows << "\n"
     << "groups=" << manifest.groups << "\n";
  return os.str();
}

StatusOr<PublicationManifest> ParseManifest(const std::string& text) {
  PublicationManifest manifest;
  bool saw_version = false;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    const std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    const auto eq = trimmed.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("manifest line without '=': " +
                                     std::string(trimmed));
    }
    const std::string key(Trim(trimmed.substr(0, eq)));
    const std::string_view value = Trim(trimmed.substr(eq + 1));
    // Each key's range is what its field can hold, so nothing narrows.
    const auto parse = [&](int64_t min, int64_t max) {
      return ParseInt64InRange(value, min, max, "manifest key '" + key + "'");
    };
    constexpr int64_t kIntMax = std::numeric_limits<int>::max();
    if (key == "format_version") {
      ANATOMY_ASSIGN_OR_RETURN(const int64_t v, parse(0, kIntMax));
      manifest.format_version = static_cast<int>(v);
      saw_version = true;
    } else if (key == "l") {
      ANATOMY_ASSIGN_OR_RETURN(const int64_t v, parse(1, kIntMax));
      manifest.l = static_cast<int>(v);
    } else if (key == "rows") {
      ANATOMY_ASSIGN_OR_RETURN(
          const int64_t v, parse(0, std::numeric_limits<RowId>::max()));
      manifest.rows = static_cast<RowId>(v);
    } else if (key == "groups") {
      ANATOMY_ASSIGN_OR_RETURN(
          const int64_t v, parse(0, std::numeric_limits<GroupId>::max()));
      manifest.groups = static_cast<size_t>(v);
    } else {
      return Status::InvalidArgument("unknown manifest key '" + key + "'");
    }
  }
  if (!saw_version) {
    return Status::InvalidArgument("manifest missing format_version");
  }
  if (manifest.format_version != 1) {
    return Status::Unimplemented(
        "unsupported bundle format version " +
        std::to_string(manifest.format_version));
  }
  if (manifest.l < 1) {
    return Status::InvalidArgument("manifest missing a valid l");
  }
  return manifest;
}

Status WritePublicationBundle(const AnatomizedTables& tables, int l,
                              const std::string& dir) {
  // Never ship a publication weaker than it claims to be.
  ANATOMY_RETURN_IF_ERROR(VerifyLDiversity(tables, l));

  ANATOMY_RETURN_IF_ERROR(
      WriteSchemaFile(tables.qit().schema(), dir + kQitSchemaFile));
  ANATOMY_RETURN_IF_ERROR(
      WriteSchemaFile(tables.st().schema(), dir + kStSchemaFile));
  ANATOMY_RETURN_IF_ERROR(WriteCsvFile(tables.qit(), dir + kQitFile));
  ANATOMY_RETURN_IF_ERROR(WriteCsvFile(tables.st(), dir + kStFile));

  PublicationManifest manifest;
  manifest.l = l;
  manifest.rows = tables.num_rows();
  manifest.groups = tables.num_groups();
  std::ofstream os(dir + kManifestFile);
  if (!os) return Status::NotFound("cannot write manifest in '" + dir + "'");
  os << SerializeManifest(manifest);
  if (!os) return Status::Internal("manifest write failed");
  return Status::OK();
}

StatusOr<LoadedPublication> ReadPublicationBundle(const std::string& dir) {
  ANATOMY_ASSIGN_OR_RETURN(const std::string manifest_text,
                           ReadWholeFile(dir + kManifestFile));
  ANATOMY_ASSIGN_OR_RETURN(PublicationManifest manifest,
                           ParseManifest(manifest_text));

  ANATOMY_ASSIGN_OR_RETURN(SchemaPtr qit_schema,
                           ReadSchemaFile(dir + kQitSchemaFile));
  ANATOMY_ASSIGN_OR_RETURN(SchemaPtr st_schema,
                           ReadSchemaFile(dir + kStSchemaFile));
  ANATOMY_ASSIGN_OR_RETURN(Table qit, ReadCsvFile(qit_schema, dir + kQitFile));
  ANATOMY_ASSIGN_OR_RETURN(Table st, ReadCsvFile(st_schema, dir + kStFile));

  ANATOMY_ASSIGN_OR_RETURN(
      AnatomizedTables tables,
      AnatomizedTables::FromPublishedTables(std::move(qit), std::move(st)));

  if (tables.num_rows() != manifest.rows) {
    return Status::InvalidArgument(
        "manifest claims " + std::to_string(manifest.rows) + " rows, QIT has " +
        std::to_string(tables.num_rows()));
  }
  if (tables.num_groups() != manifest.groups) {
    return Status::InvalidArgument("manifest group count mismatch");
  }
  // The privacy claim is re-verified, not trusted.
  ANATOMY_RETURN_IF_ERROR(VerifyLDiversity(tables, manifest.l));

  LoadedPublication loaded{std::move(tables), manifest};
  return loaded;
}

}  // namespace anatomy
