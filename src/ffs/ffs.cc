#include "ffs/ffs.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace raid2::ffs {

namespace {

constexpr std::uint32_t inodeSize = 256;

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
        if (end > pos)
            parts.push_back(path.substr(pos, end - pos));
        pos = end + 1;
    }
    return parts;
}

} // namespace

void
Ffs::format(fs::BlockDevice &dev, const Params &params)
{
    const std::uint32_t bs = params.blockSize;
    if (dev.blockSize() != bs)
        sim::fatal("Ffs::format: block size mismatch");

    Super sb{};
    sb.magic = magicValue;
    sb.blockSize = bs;
    sb.maxInodes = params.maxInodes;
    sb.inodeTableBlock = 1;
    const std::uint32_t itable_blocks =
        (params.maxInodes * inodeSize + bs - 1) / bs;
    sb.bitmapBlock = sb.inodeTableBlock + itable_blocks;
    sb.numBlocks = dev.numBlocks();
    sb.bitmapBlocks = static_cast<std::uint32_t>(
        (sb.numBlocks / 8 + bs - 1) / bs);
    sb.dataStartBlock = sb.bitmapBlock + sb.bitmapBlocks;
    sb.rootIno = 1;

    std::vector<std::uint8_t> block(bs, 0);
    std::memcpy(block.data(), &sb, sizeof(sb));
    dev.writeRange(0, 1, {block.data(), block.size()});

    // Zero the inode table and bitmap.
    std::fill(block.begin(), block.end(), 0);
    for (std::uint32_t b = sb.inodeTableBlock; b < sb.dataStartBlock; ++b)
        dev.writeRange(b, 1, {block.data(), block.size()});

    // Root inode.
    Inode ri{};
    ri.ino = sb.rootIno;
    ri.type = static_cast<std::uint16_t>(FileType::Directory);
    ri.nlink = 2;
    std::memcpy(block.data(), &ri, sizeof(ri));
    // Root is inode #1 -> slot 1 in the table.
    std::vector<std::uint8_t> itable(bs, 0);
    std::memcpy(itable.data() + inodeSize, &ri, sizeof(ri));
    dev.writeRange(sb.inodeTableBlock, 1, {itable.data(), itable.size()});
    dev.flush();
}

Ffs::Ffs(fs::BlockDevice &dev_) : dev(dev_)
{
    std::vector<std::uint8_t> block(dev.blockSize());
    dev.readRange(0, 1, {block.data(), block.size()});
    std::memcpy(&sb, block.data(), sizeof(sb));
    if (sb.magic != magicValue)
        throw LfsError(Errno::Invalid, "not an FFS device");
    root = sb.rootIno;
    bitmap.resize(std::size_t(sb.bitmapBlocks) * sb.blockSize);
    dev.readRange(sb.bitmapBlock, sb.bitmapBlocks,
                  {bitmap.data(), bitmap.size()});
}

Ffs::Inode
Ffs::loadInode(InodeNum ino) const
{
    if (ino == lfs::nullIno || ino >= sb.maxInodes)
        throw LfsError(Errno::Invalid, "bad inode number");
    const std::uint32_t per = sb.blockSize / inodeSize;
    std::vector<std::uint8_t> block(sb.blockSize);
    dev.readRange(sb.inodeTableBlock + ino / per, 1,
                  {block.data(), block.size()});
    Inode inode;
    std::memcpy(&inode, block.data() + (ino % per) * inodeSize,
                sizeof(inode));
    if (inode.type == static_cast<std::uint16_t>(FileType::Free))
        throw LfsError(Errno::NoEntry, "inode not allocated");
    return inode;
}

void
Ffs::storeInode(const Inode &inode)
{
    const std::uint32_t per = sb.blockSize / inodeSize;
    std::vector<std::uint8_t> block(sb.blockSize);
    const std::uint64_t bno = sb.inodeTableBlock + inode.ino / per;
    dev.readRange(bno, 1, {block.data(), block.size()});
    std::memcpy(block.data() + (inode.ino % per) * inodeSize, &inode,
                sizeof(inode));
    dev.writeRange(bno, 1, {block.data(), block.size()});
}

InodeNum
Ffs::allocInode(FileType type)
{
    const std::uint32_t per = sb.blockSize / inodeSize;
    std::vector<std::uint8_t> block(sb.blockSize);
    for (InodeNum ino = 1; ino < sb.maxInodes; ++ino) {
        dev.readRange(sb.inodeTableBlock + ino / per, 1,
                      {block.data(), block.size()});
        Inode inode;
        std::memcpy(&inode, block.data() + (ino % per) * inodeSize,
                    sizeof(inode));
        if (inode.type == static_cast<std::uint16_t>(FileType::Free)) {
            Inode fresh{};
            fresh.ino = ino;
            fresh.type = static_cast<std::uint16_t>(type);
            fresh.nlink = type == FileType::Directory ? 2 : 1;
            storeInode(fresh);
            return ino;
        }
    }
    throw LfsError(Errno::NoSpace, "out of inodes");
}

bool
Ffs::bitGet(std::uint64_t bno) const
{
    return (bitmap[bno / 8] >> (bno % 8)) & 1;
}

void
Ffs::bitSet(std::uint64_t bno, bool v)
{
    if (v)
        bitmap[bno / 8] |= std::uint8_t(1u << (bno % 8));
    else
        bitmap[bno / 8] &= std::uint8_t(~(1u << (bno % 8)));
    // Write-through the affected bitmap block.
    const std::uint64_t which = (bno / 8) / sb.blockSize;
    dev.writeRange(sb.bitmapBlock + which, 1,
                   {bitmap.data() + which * sb.blockSize, sb.blockSize});
}

std::uint64_t
Ffs::allocBlock()
{
    for (std::uint64_t b = sb.dataStartBlock; b < sb.numBlocks; ++b) {
        if (!bitGet(b)) {
            bitSet(b, true);
            return b;
        }
    }
    throw LfsError(Errno::NoSpace, "device full");
}

void
Ffs::freeBlock(std::uint64_t bno)
{
    bitSet(bno, false);
}

std::uint64_t
Ffs::freeBlocks() const
{
    std::uint64_t n = 0;
    for (std::uint64_t b = sb.dataStartBlock; b < sb.numBlocks; ++b)
        n += bitGet(b) ? 0 : 1;
    return n;
}

std::uint64_t
Ffs::getFileBlock(const Inode &inode, std::uint64_t fbno) const
{
    const std::uint32_t p = sb.blockSize / 8;
    if (fbno < numDirect)
        return inode.direct[fbno];
    if (fbno < numDirect + p) {
        if (inode.indirect == 0)
            return 0;
        std::vector<std::uint8_t> block(sb.blockSize);
        dev.readRange(inode.indirect, 1, {block.data(), block.size()});
        std::uint64_t addr;
        std::memcpy(&addr, block.data() + (fbno - numDirect) * 8,
                    sizeof(addr));
        return addr;
    }
    throw LfsError(Errno::FileTooBig, "file too big for FFS baseline");
}

void
Ffs::setFileBlock(Inode &inode, std::uint64_t fbno, std::uint64_t addr)
{
    const std::uint32_t p = sb.blockSize / 8;
    if (fbno < numDirect) {
        inode.direct[fbno] = addr;
        return;
    }
    if (fbno >= numDirect + p)
        throw LfsError(Errno::FileTooBig, "file too big for FFS baseline");
    if (inode.indirect == 0)
        inode.indirect = allocBlock();
    std::vector<std::uint8_t> block(sb.blockSize);
    dev.readRange(inode.indirect, 1, {block.data(), block.size()});
    std::memcpy(block.data() + (fbno - numDirect) * 8, &addr,
                sizeof(addr));
    dev.writeRange(inode.indirect, 1, {block.data(), block.size()});
}

std::uint64_t
Ffs::writeData(Inode &inode, std::uint64_t off,
               std::span<const std::uint8_t> data)
{
    const std::uint32_t bs = sb.blockSize;
    std::vector<std::uint8_t> buf(bs);
    std::uint64_t pos = off;
    std::uint64_t left = data.size();
    while (left > 0) {
        const std::uint64_t fbno = pos / bs;
        const std::uint32_t in_block =
            static_cast<std::uint32_t>(pos % bs);
        const std::uint32_t take = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(left, bs - in_block));

        std::uint64_t addr = getFileBlock(inode, fbno);
        if (addr == 0) {
            addr = allocBlock();
            setFileBlock(inode, fbno, addr);
        }
        if (take == bs) {
            dev.writeRange(addr, 1, {data.data() + (pos - off), bs});
        } else {
            dev.readRange(addr, 1, {buf.data(), bs});
            std::memcpy(buf.data() + in_block, data.data() + (pos - off),
                        take);
            dev.writeRange(addr, 1, {buf.data(), bs});
        }
        pos += take;
        left -= take;
    }
    // Inode is packed: read its size by value (std::max takes const
    // T&, and a reference to a misaligned member is undefined).
    const std::uint64_t old_size = inode.size;
    inode.size = std::max(old_size, off + data.size());
    storeInode(inode);
    return data.size();
}

std::uint64_t
Ffs::readData(const Inode &inode, std::uint64_t off,
              std::span<std::uint8_t> out) const
{
    if (off >= inode.size || out.empty())
        return 0;
    const std::uint64_t n =
        std::min<std::uint64_t>(out.size(), inode.size - off);
    const std::uint32_t bs = sb.blockSize;
    std::vector<std::uint8_t> buf(bs);
    std::uint64_t pos = off;
    std::uint64_t left = n;
    while (left > 0) {
        const std::uint64_t fbno = pos / bs;
        const std::uint32_t in_block =
            static_cast<std::uint32_t>(pos % bs);
        const std::uint32_t take = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(left, bs - in_block));
        std::uint8_t *dst = out.data() + (pos - off);
        const std::uint64_t addr = getFileBlock(inode, fbno);
        if (addr == 0) {
            std::memset(dst, 0, take);
        } else if (take == bs) {
            dev.readRange(addr, 1, {dst, bs});
        } else {
            dev.readRange(addr, 1, {buf.data(), bs});
            std::memcpy(dst, buf.data() + in_block, take);
        }
        pos += take;
        left -= take;
    }
    return n;
}

std::uint64_t
Ffs::write(InodeNum ino, std::uint64_t off,
           std::span<const std::uint8_t> data)
{
    Inode inode = loadInode(ino);
    if (inode.type == static_cast<std::uint16_t>(FileType::Directory))
        throw LfsError(Errno::IsDirectory, "write to a directory");
    return writeData(inode, off, data);
}

std::uint64_t
Ffs::read(InodeNum ino, std::uint64_t off,
          std::span<std::uint8_t> out) const
{
    return readData(loadInode(ino), off, out);
}

std::vector<FileExtent>
Ffs::mapFile(InodeNum ino, std::uint64_t off, std::uint64_t len) const
{
    const Inode inode = loadInode(ino);
    std::vector<FileExtent> extents;
    if (off >= inode.size || len == 0)
        return extents;
    len = std::min<std::uint64_t>(len, inode.size - off);
    const std::uint32_t bs = sb.blockSize;
    std::uint64_t pos = off;
    std::uint64_t left = len;
    while (left > 0) {
        const std::uint64_t fbno = pos / bs;
        const std::uint32_t in_block =
            static_cast<std::uint32_t>(pos % bs);
        const std::uint32_t take = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(left, bs - in_block));
        const std::uint64_t addr = getFileBlock(inode, fbno);
        const bool hole = addr == 0;
        const std::uint64_t dev_off = hole ? 0 : addr * bs + in_block;
        if (!extents.empty()) {
            FileExtent &prev = extents.back();
            if (prev.hole == hole &&
                prev.fileOffset + prev.bytes == pos &&
                (hole || prev.deviceOffset + prev.bytes == dev_off)) {
                prev.bytes += take;
                pos += take;
                left -= take;
                continue;
            }
        }
        extents.push_back(FileExtent{dev_off, take, pos, hole});
        pos += take;
        left -= take;
    }
    return extents;
}

std::vector<DirEntry>
Ffs::readDirEntries(const Inode &dir) const
{
    std::vector<std::uint8_t> raw(dir.size);
    if (dir.size > 0)
        readData(dir, 0, {raw.data(), raw.size()});
    std::vector<DirEntry> entries;
    std::size_t pos = 0;
    while (pos + 6 <= raw.size()) {
        InodeNum ino;
        std::uint16_t len;
        std::memcpy(&ino, raw.data() + pos, 4);
        std::memcpy(&len, raw.data() + pos + 4, 2);
        pos += 6;
        if (ino == lfs::nullIno && len == 0)
            break;
        if (len == 0 || pos + len > raw.size())
            sim::panic("Ffs: corrupt directory");
        entries.push_back(DirEntry{
            ino, std::string(
                     reinterpret_cast<const char *>(raw.data() + pos),
                     len)});
        pos += len;
    }
    return entries;
}

void
Ffs::writeDirEntries(Inode &dir, const std::vector<DirEntry> &ents)
{
    std::vector<std::uint8_t> raw;
    for (const DirEntry &e : ents) {
        const std::uint16_t len = static_cast<std::uint16_t>(
            e.name.size());
        raw.insert(raw.end(),
                   reinterpret_cast<const std::uint8_t *>(&e.ino),
                   reinterpret_cast<const std::uint8_t *>(&e.ino) + 4);
        raw.insert(raw.end(),
                   reinterpret_cast<const std::uint8_t *>(&len),
                   reinterpret_cast<const std::uint8_t *>(&len) + 2);
        raw.insert(raw.end(), e.name.begin(), e.name.end());
    }
    // Terminator.
    raw.insert(raw.end(), 6, 0);
    writeData(dir, 0, {raw.data(), raw.size()});
    dir.size = raw.size();
    storeInode(dir);
}

InodeNum
Ffs::resolve(const std::string &path) const
{
    InodeNum cur = root;
    for (const std::string &comp : splitPath(path)) {
        const Inode dir = loadInode(cur);
        if (dir.type != static_cast<std::uint16_t>(FileType::Directory))
            throw LfsError(Errno::NotDirectory, path);
        InodeNum next = lfs::nullIno;
        for (const DirEntry &e : readDirEntries(dir)) {
            if (e.name == comp) {
                next = e.ino;
                break;
            }
        }
        if (next == lfs::nullIno)
            throw LfsError(Errno::NoEntry, path + " not found");
        cur = next;
    }
    return cur;
}

InodeNum
Ffs::resolveParent(const std::string &path, std::string &leaf) const
{
    auto parts = splitPath(path);
    if (parts.empty())
        throw LfsError(Errno::Invalid, "no leaf in path");
    leaf = parts.back();
    std::string parent = "/";
    for (std::size_t i = 0; i + 1 < parts.size(); ++i)
        parent += parts[i] + "/";
    return resolve(parent);
}

InodeNum
Ffs::create(const std::string &path)
{
    std::string leaf;
    const InodeNum parent_ino = resolveParent(path, leaf);
    Inode parent = loadInode(parent_ino);
    for (const DirEntry &e : readDirEntries(parent)) {
        if (e.name == leaf)
            throw LfsError(Errno::Exists, path + " exists");
    }
    const InodeNum ino = allocInode(FileType::Regular);
    auto ents = readDirEntries(parent);
    ents.push_back(DirEntry{ino, leaf});
    writeDirEntries(parent, ents);
    return ino;
}

InodeNum
Ffs::mkdir(const std::string &path)
{
    std::string leaf;
    const InodeNum parent_ino = resolveParent(path, leaf);
    Inode parent = loadInode(parent_ino);
    for (const DirEntry &e : readDirEntries(parent)) {
        if (e.name == leaf)
            throw LfsError(Errno::Exists, path + " exists");
    }
    const InodeNum ino = allocInode(FileType::Directory);
    auto ents = readDirEntries(parent);
    ents.push_back(DirEntry{ino, leaf});
    writeDirEntries(parent, ents);
    parent = loadInode(parent_ino);
    ++parent.nlink;
    storeInode(parent);
    return ino;
}

void
Ffs::freeInodeBlocks(Inode &inode)
{
    const std::uint32_t bs = sb.blockSize;
    const std::uint64_t blocks = (inode.size + bs - 1) / bs;
    for (std::uint64_t f = 0; f < blocks; ++f) {
        const std::uint64_t addr = getFileBlock(inode, f);
        if (addr != 0)
            freeBlock(addr);
    }
    if (inode.indirect != 0)
        freeBlock(inode.indirect);
}

void
Ffs::unlink(const std::string &path)
{
    std::string leaf;
    const InodeNum parent_ino = resolveParent(path, leaf);
    Inode parent = loadInode(parent_ino);
    auto ents = readDirEntries(parent);
    for (auto it = ents.begin(); it != ents.end(); ++it) {
        if (it->name != leaf)
            continue;
        const InodeNum dead = it->ino;
        Inode victim = loadInode(dead);
        if (victim.type ==
            static_cast<std::uint16_t>(FileType::Directory)) {
            throw LfsError(Errno::IsDirectory, path + " is a directory");
        }
        ents.erase(it);
        writeDirEntries(parent, ents);
        freeInodeBlocks(victim);

        // Clear the inode slot in the table.
        const std::uint32_t per = sb.blockSize / inodeSize;
        std::vector<std::uint8_t> block(sb.blockSize);
        const std::uint64_t bno = sb.inodeTableBlock + dead / per;
        dev.readRange(bno, 1, {block.data(), block.size()});
        std::memset(block.data() + (dead % per) * inodeSize, 0,
                    inodeSize);
        dev.writeRange(bno, 1, {block.data(), block.size()});
        return;
    }
    throw LfsError(Errno::NoEntry, path + " not found");
}

InodeNum
Ffs::lookup(const std::string &path) const
{
    return resolve(path);
}

bool
Ffs::exists(const std::string &path) const
{
    try {
        resolve(path);
        return true;
    } catch (const LfsError &) {
        return false;
    }
}

std::vector<DirEntry>
Ffs::readdir(const std::string &path) const
{
    const Inode dir = loadInode(resolve(path));
    if (dir.type != static_cast<std::uint16_t>(FileType::Directory))
        throw LfsError(Errno::NotDirectory, path);
    return readDirEntries(dir);
}

Stat
Ffs::stat(const std::string &path) const
{
    const Inode inode = loadInode(resolve(path));
    Stat st;
    st.ino = inode.ino;
    st.type = static_cast<FileType>(inode.type);
    st.size = inode.size;
    st.nlink = inode.nlink;
    return st;
}

} // namespace raid2::ffs
