#include "tar/tar.hpp"

#include <cstddef>
#include <cstring>

#include "util/error.hpp"

namespace gear::tar {
namespace {

constexpr char kWhiteoutPrefix[] = ".wh.";
constexpr char kOpaqueMarker[] = ".wh..wh..opq";

struct Header {
  char name[100];
  char mode[8];
  char uid[8];
  char gid[8];
  char size[12];
  char mtime[12];
  char chksum[8];
  char typeflag;
  char linkname[100];
  char magic[6];
  char version[2];
  char uname[32];
  char gname[32];
  char devmajor[8];
  char devminor[8];
  char prefix[155];
  char padding[12];
};
static_assert(sizeof(Header) == kBlockSize, "ustar header must be 512 bytes");

void write_octal(char* field, std::size_t len, std::uint64_t value) {
  // len-1 octal digits followed by NUL, zero padded.
  for (std::size_t i = len - 1; i-- > 0;) {
    field[i] = static_cast<char>('0' + (value & 7));
    value >>= 3;
  }
  field[len - 1] = '\0';
  if (value != 0) {
    throw_error(ErrorCode::kInvalidArgument, "tar: numeric field overflow");
  }
}

std::uint64_t read_octal(const char* field, std::size_t len) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < len && field[i] != '\0' && field[i] != ' '; ++i) {
    if (field[i] < '0' || field[i] > '7') {
      throw_error(ErrorCode::kCorruptData, "tar: bad octal digit");
    }
    v = (v << 3) | static_cast<std::uint64_t>(field[i] - '0');
  }
  return v;
}

void set_path(Header& h, std::string_view path) {
  if (path.size() <= sizeof(h.name)) {
    std::memcpy(h.name, path.data(), path.size());
    return;
  }
  // Split into prefix/name at a '/' so that prefix <= 155 and name <= 100.
  std::size_t split = path.rfind('/', sizeof(h.prefix));
  if (split == std::string_view::npos ||
      path.size() - split - 1 > sizeof(h.name)) {
    throw_error(ErrorCode::kInvalidArgument,
                "tar: path too long: " + std::string(path));
  }
  std::memcpy(h.prefix, path.data(), split);
  std::memcpy(h.name, path.data() + split + 1, path.size() - split - 1);
}

// A NUL-terminated header field, or all of it when it has no NUL.
std::string_view field_str(const char* field, std::size_t len) {
  const void* nul = std::memchr(field, '\0', len);
  return std::string_view(
      field, nul == nullptr ? len : static_cast<const char*>(nul) - field);
}

void finalize_checksum(Header& h) {
  std::memset(h.chksum, ' ', sizeof(h.chksum));
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(&h);
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i < kBlockSize; ++i) sum += bytes[i];
  // 6 octal digits, NUL, space (historical ustar layout).
  for (std::size_t i = 6; i-- > 0;) {
    h.chksum[i] = static_cast<char>('0' + (sum & 7));
    sum >>= 3;
  }
  h.chksum[6] = '\0';
  h.chksum[7] = ' ';
}

void emit_node(EntryWriter& writer, const std::string& path,
               const vfs::FileNode& node) {
  switch (node.type()) {
    case vfs::NodeType::kWhiteout: {
      // ".wh.<name>" zero-length file in the parent directory.
      std::size_t slash = path.rfind('/');
      std::string wh = slash == std::string::npos
                           ? std::string(kWhiteoutPrefix) + path
                           : path.substr(0, slash + 1) + kWhiteoutPrefix +
                                 path.substr(slash + 1);
      writer.file(wh, vfs::Metadata{}, {});
      return;
    }
    case vfs::NodeType::kDirectory: {
      writer.directory(path, node.metadata());
      if (node.opaque()) {
        writer.file(path + "/" + kOpaqueMarker, vfs::Metadata{}, {});
      }
      for (const auto& [name, child] : node.children()) {
        emit_node(writer, path + "/" + name, *child);
      }
      return;
    }
    case vfs::NodeType::kRegular:
      writer.file(path, node.metadata(), node.content());
      return;
    case vfs::NodeType::kSymlink:
      writer.symlink(path, node.metadata(), node.link_target());
      return;
    case vfs::NodeType::kFingerprint:
      // Index stubs never travel inside layer tarballs; the Gear index
      // writes its stub files itself (GearIndex::to_layer).
      throw_error(ErrorCode::kUnsupported,
                  "tar: fingerprint stubs cannot be archived");
  }
}

}  // namespace

void EntryWriter::entry(std::string_view path, char typeflag,
                        const vfs::Metadata& meta, BytesView content,
                        std::string_view linkname) {
  Header h{};
  set_path(h, path);
  write_octal(h.mode, sizeof(h.mode), meta.mode);
  write_octal(h.uid, sizeof(h.uid), meta.uid);
  write_octal(h.gid, sizeof(h.gid), meta.gid);
  write_octal(h.size, sizeof(h.size), content.size());
  write_octal(h.mtime, sizeof(h.mtime), meta.mtime);
  h.typeflag = typeflag;
  if (!linkname.empty()) {
    if (linkname.size() > sizeof(h.linkname)) {
      throw_error(ErrorCode::kInvalidArgument, "tar: link target too long");
    }
    std::memcpy(h.linkname, linkname.data(), linkname.size());
  }
  std::memcpy(h.magic, "ustar", 6);
  std::memcpy(h.version, "00", 2);
  finalize_checksum(h);

  const auto* hbytes = reinterpret_cast<const std::uint8_t*>(&h);
  out_.insert(out_.end(), hbytes, hbytes + kBlockSize);
  if (!content.empty()) {
    append(out_, content);
    std::size_t rem = content.size() % kBlockSize;
    if (rem != 0) out_.insert(out_.end(), kBlockSize - rem, 0);
  }
}

void EntryWriter::directory(std::string_view path, const vfs::Metadata& meta) {
  entry(std::string(path) + "/", '5', meta, {}, {});
}

void EntryWriter::file(std::string_view path, const vfs::Metadata& meta,
                       BytesView content) {
  entry(path, '0', meta, content, {});
}

void EntryWriter::symlink(std::string_view path, const vfs::Metadata& meta,
                          std::string_view target) {
  entry(path, '2', meta, {}, target);
}

void EntryWriter::finish() { out_.insert(out_.end(), 2 * kBlockSize, 0); }

Bytes archive_tree(const vfs::FileTree& tree) {
  Bytes out;
  EntryWriter writer(out);
  for (const auto& [name, child] : tree.root().children()) {
    emit_node(writer, name, *child);
  }
  writer.finish();
  return out;
}

EntryWalker::EntryWalker(BytesView archive) : archive_(archive) {
  if (archive.size() % kBlockSize != 0) {
    throw_error(ErrorCode::kCorruptData, "tar: size not block-aligned");
  }
}

bool EntryWalker::next(Entry& entry) {
  if (pos_ + kBlockSize > archive_.size()) return false;
  const std::uint8_t* const block = archive_.data() + pos_;
  pos_ += kBlockSize;
  // Header fields are read in place, as characters at their offsets.
  const char* const raw = reinterpret_cast<const char*>(block);
  auto octal = [raw](std::size_t offset, std::size_t len) {
    return read_octal(raw + offset, len);
  };
  auto text = [raw](std::size_t offset, std::size_t len) {
    return field_str(raw + offset, len);
  };

  // The checksum is the byte sum with the checksum field read as spaces;
  // an all-zero block, the end of the archive, is the one summing to 0.
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i < kBlockSize; ++i) sum += block[i];
  if (sum == 0) {
    pos_ = archive_.size();
    return false;
  }
  if (std::memcmp(raw + offsetof(Header, magic), "ustar", 5) != 0) {
    throw_error(ErrorCode::kCorruptData, "tar: bad magic");
  }
  constexpr std::size_t kChksum = offsetof(Header, chksum);
  constexpr std::size_t kChksumLen = sizeof(Header::chksum);
  for (std::size_t i = 0; i < kChksumLen; ++i) sum -= block[kChksum + i];
  sum += ' ' * kChksumLen;
  if (octal(kChksum, kChksumLen) != sum) {
    throw_error(ErrorCode::kCorruptData, "tar: header checksum mismatch");
  }

  const std::string_view prefix =
      text(offsetof(Header, prefix), sizeof(Header::prefix));
  path_.assign(prefix);
  if (!prefix.empty()) path_ += '/';
  path_ += text(offsetof(Header, name), sizeof(Header::name));
  while (!path_.empty() && path_.back() == '/') path_.pop_back();
  const std::uint64_t size =
      octal(offsetof(Header, size), sizeof(Header::size));
  entry.metadata.mode = static_cast<std::uint32_t>(
      octal(offsetof(Header, mode), sizeof(Header::mode)));
  entry.metadata.uid = static_cast<std::uint32_t>(
      octal(offsetof(Header, uid), sizeof(Header::uid)));
  entry.metadata.gid = static_cast<std::uint32_t>(
      octal(offsetof(Header, gid), sizeof(Header::gid)));
  entry.metadata.mtime = octal(offsetof(Header, mtime), sizeof(Header::mtime));

  const char typeflag = raw[offsetof(Header, typeflag)];
  entry.content = {};
  entry.link_target = {};
  if (typeflag == '0' || typeflag == '\0') {
    if (pos_ + size > archive_.size()) {
      throw_error(ErrorCode::kCorruptData, "tar: truncated file payload");
    }
    entry.content = archive_.subspan(pos_, size);
    pos_ += (size + kBlockSize - 1) / kBlockSize * kBlockSize;
  }

  // Decode the whiteout / opaque conventions back into entry types; they
  // apply whatever the typeflag.
  const std::size_t slash = path_.rfind('/');
  const std::size_t base = slash == std::string::npos ? 0 : slash + 1;
  const std::string_view basename = std::string_view(path_).substr(base);
  if (basename == kOpaqueMarker) {
    entry.type = EntryType::kOpaque;
    entry.path = std::string_view(path_).substr(0, slash);
    return true;
  }
  if (basename.starts_with(kWhiteoutPrefix)) {
    path_.erase(base, std::strlen(kWhiteoutPrefix));
    entry.type = EntryType::kWhiteout;
    entry.path = path_;
    return true;
  }

  entry.path = path_;
  switch (typeflag) {
    case '0':
    case '\0':
      entry.type = EntryType::kFile;
      break;
    case '5':
      entry.type = EntryType::kDirectory;
      break;
    case '2':
      entry.type = EntryType::kSymlink;
      entry.link_target =
          text(offsetof(Header, linkname), sizeof(Header::linkname));
      break;
    default:
      throw_error(ErrorCode::kUnsupported,
                  std::string("tar: unsupported entry type '") + typeflag +
                      "'");
  }
  return true;
}

vfs::FileTree extract_tree(BytesView archive) {
  vfs::FileTree tree;
  EntryWalker walker(archive);
  Entry entry;
  while (walker.next(entry)) {
    switch (entry.type) {
      case EntryType::kFile:
        tree.add_file(entry.path,
                      Bytes(entry.content.begin(), entry.content.end()),
                      entry.metadata);
        break;
      case EntryType::kDirectory:
        tree.add_directory(entry.path, entry.metadata);
        break;
      case EntryType::kSymlink:
        tree.add_symlink(entry.path, std::string(entry.link_target),
                         entry.metadata);
        break;
      case EntryType::kWhiteout:
        tree.add_whiteout(entry.path);
        break;
      case EntryType::kOpaque: {
        vfs::FileNode* node = tree.lookup(entry.path);
        if (node == nullptr || !node->is_directory()) {
          throw_error(ErrorCode::kCorruptData,
                      "tar: opaque marker without directory");
        }
        node->set_opaque(true);
        break;
      }
    }
  }
  return tree;
}

std::uint64_t archive_block_count(const vfs::FileTree& tree) {
  return archive_tree(tree).size() / kBlockSize;
}

}  // namespace gear::tar
