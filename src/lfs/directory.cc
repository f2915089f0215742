/**
 * @file
 * Directory layer: entry serialization, path resolution and the tree
 * walk.
 *
 * Directories are ordinary log files holding a packed list of
 * (inode, name) records; "." and ".." are implicit in path logic.
 * The whole entry list is rewritten on modification — directories in
 * the paper's workloads are small, and LFS folds the rewrite into the
 * open segment anyway.
 */

#include <cstring>

#include "lfs/lfs.hh"
#include "sim/logging.hh"

namespace raid2::lfs {

namespace {

constexpr std::size_t maxNameLen = 255;

struct RawEntryHeader
{
    InodeNum ino;
    std::uint16_t nameLen;
};

} // namespace

std::vector<DirEntry>
Lfs::readDirEntries(const DiskInode &dir) const
{
    std::vector<std::uint8_t> raw(dir.size);
    if (dir.size > 0)
        readData(dir, 0, {raw.data(), raw.size()});

    std::vector<DirEntry> entries;
    std::size_t pos = 0;
    while (pos + sizeof(RawEntryHeader) <= raw.size()) {
        RawEntryHeader hdr;
        std::memcpy(&hdr, raw.data() + pos, sizeof(hdr));
        pos += sizeof(hdr);
        if (hdr.ino == nullIno && hdr.nameLen == 0)
            break; // padding tail
        if (hdr.nameLen == 0 || hdr.nameLen > maxNameLen ||
            pos + hdr.nameLen > raw.size()) {
            // Corrupt media, not a program bug: let callers (fsck,
            // the crash checker) handle it.
            throw LfsError(Errno::Invalid,
                           "corrupt directory entry in inode " +
                               std::to_string(dir.ino));
        }
        entries.push_back(DirEntry{
            hdr.ino,
            std::string(reinterpret_cast<const char *>(raw.data() + pos),
                        hdr.nameLen)});
        pos += hdr.nameLen;
    }
    return entries;
}

void
Lfs::writeDirEntries(DiskInode &dir, const std::vector<DirEntry> &entries)
{
    std::vector<std::uint8_t> raw;
    for (const DirEntry &e : entries) {
        RawEntryHeader hdr{e.ino,
                           static_cast<std::uint16_t>(e.name.size())};
        const auto *p = reinterpret_cast<const std::uint8_t *>(&hdr);
        raw.insert(raw.end(), p, p + sizeof(hdr));
        raw.insert(raw.end(), e.name.begin(), e.name.end());
    }

    const std::uint64_t old_size = dir.size;
    if (!raw.empty())
        writeData(dir, 0, {raw.data(), raw.size()});
    if (raw.size() < old_size) {
        // Shrink: clear the tail blocks and the size.
        const std::uint32_t bs = sb.blockSize;
        const std::uint64_t keep = (raw.size() + bs - 1) / bs;
        freeFileBlocks(dir, keep);
        dir.size = raw.size();
    } else {
        dir.size = raw.size();
    }
    dir.mtime = ++logicalTime;
    markInodeDirty(dir.ino);
}

InodeNum
Lfs::dirLookup(const DiskInode &dir, const std::string &name) const
{
    for (const DirEntry &e : readDirEntries(dir)) {
        if (e.name == name)
            return e.ino;
    }
    return nullIno;
}

void
Lfs::dirAdd(DiskInode &dir, const std::string &name, InodeNum ino)
{
    if (name.empty() || name.size() > maxNameLen)
        throw LfsError(Errno::Invalid, "bad file name");
    auto entries = readDirEntries(dir);
    entries.push_back(DirEntry{ino, name});
    writeDirEntries(dir, entries);
}

void
Lfs::dirRemove(DiskInode &dir, const std::string &name)
{
    auto entries = readDirEntries(dir);
    for (auto it = entries.begin(); it != entries.end(); ++it) {
        if (it->name == name) {
            entries.erase(it);
            writeDirEntries(dir, entries);
            return;
        }
    }
    throw LfsError(Errno::NoEntry, name + " not found");
}

namespace {

/** Split an absolute path into components; rejects relative paths. */
std::vector<std::string>
splitPath(const std::string &path)
{
    if (path.empty() || path[0] != '/')
        throw LfsError(Errno::Invalid, "path must be absolute: " + path);
    std::vector<std::string> parts;
    std::size_t pos = 1;
    while (pos < path.size()) {
        const std::size_t slash = path.find('/', pos);
        const std::size_t end =
            slash == std::string::npos ? path.size() : slash;
        if (end > pos) {
            std::string comp = path.substr(pos, end - pos);
            if (comp == "." || comp == "..") {
                throw LfsError(Errno::Invalid,
                               "'.'/'..' not supported in paths");
            }
            parts.push_back(std::move(comp));
        }
        pos = end + 1;
    }
    return parts;
}

} // namespace

InodeNum
Lfs::resolve(const std::string &path) const
{
    InodeNum cur = root;
    for (const std::string &comp : splitPath(path)) {
        const DiskInode &inode = getInodeConst(cur);
        if (inode.fileType() != FileType::Directory)
            throw LfsError(Errno::NotDirectory, path);
        const InodeNum next = dirLookup(inode, comp);
        if (next == nullIno)
            throw LfsError(Errno::NoEntry, path + " not found");
        cur = next;
    }
    return cur;
}

InodeNum
Lfs::resolveParent(const std::string &path, std::string &leaf) const
{
    auto parts = splitPath(path);
    if (parts.empty())
        throw LfsError(Errno::Invalid, "no leaf in path: " + path);
    leaf = parts.back();
    InodeNum cur = root;
    for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
        const DiskInode &inode = getInodeConst(cur);
        if (inode.fileType() != FileType::Directory)
            throw LfsError(Errno::NotDirectory, path);
        const InodeNum next = dirLookup(inode, parts[i]);
        if (next == nullIno)
            throw LfsError(Errno::NoEntry, path + " not found");
        cur = next;
    }
    if (getInodeConst(cur).fileType() != FileType::Directory)
        throw LfsError(Errno::NotDirectory, path);
    return cur;
}

void
Lfs::walk(const std::function<void(const std::string &, const Stat &)> &fn)
    const
{
    walkFrom("/", root, fn);
}

void
Lfs::walkFrom(const std::string &path, InodeNum ino,
              const std::function<void(const std::string &, const Stat &)>
                  &fn) const
{
    const Stat st = statIno(ino);
    fn(path, st);
    if (st.type != FileType::Directory)
        return;
    const std::string prefix = path == "/" ? "" : path;
    for (const DirEntry &e : readDirEntries(getInodeConst(ino)))
        walkFrom(prefix + "/" + e.name, e.ino, fn);
}

} // namespace raid2::lfs
