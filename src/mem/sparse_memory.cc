#include "sparse_memory.hh"

#include <algorithm>
#include <cstring>

#include "base/base64.hh"
#include "base/logging.hh"

namespace chex
{

SparseMemory::Page *
SparseMemory::findPage(uint64_t addr) const
{
    uint64_t num = addr / PageBytes;
    if (num == lastPageNum)
        return lastPage;
    auto it = pages.find(num);
    if (it == pages.end())
        return nullptr;
    lastPageNum = num;
    lastPage = it->second.get();
    return lastPage;
}

SparseMemory::Page &
SparseMemory::touchPage(uint64_t addr)
{
    uint64_t num = addr / PageBytes;
    if (num == lastPageNum)
        return *lastPage;
    auto &slot = pages[num];
    if (!slot) {
        slot = std::make_unique<Page>();
        slot->fill(0);
    }
    lastPageNum = num;
    lastPage = slot.get();
    return *slot;
}

uint64_t
SparseMemory::read(uint64_t addr, unsigned size) const
{
    chex_assert(size == 1 || size == 2 || size == 4 || size == 8,
                "bad access size");
    uint64_t value = 0;
    readBlock(addr, &value, size);
    return value;
}

void
SparseMemory::write(uint64_t addr, uint64_t value, unsigned size)
{
    chex_assert(size == 1 || size == 2 || size == 4 || size == 8,
                "bad access size");
    writeBlock(addr, &value, size);
}

void
SparseMemory::readBlock(uint64_t addr, void *buf, uint64_t len) const
{
    auto *out = static_cast<uint8_t *>(buf);
    // Fast path: nearly every access is a 1-8 byte read that stays
    // within one page.
    uint64_t off = addr % PageBytes;
    if (off + len <= PageBytes) {
        if (const Page *page = findPage(addr))
            std::memcpy(out, page->data() + off, len);
        else
            std::memset(out, 0, len);
        return;
    }
    while (len > 0) {
        off = addr % PageBytes;
        uint64_t chunk = std::min(len, PageBytes - off);
        if (const Page *page = findPage(addr))
            std::memcpy(out, page->data() + off, chunk);
        else
            std::memset(out, 0, chunk);
        addr += chunk;
        out += chunk;
        len -= chunk;
    }
}

void
SparseMemory::writeBlock(uint64_t addr, const void *buf, uint64_t len)
{
    auto *in = static_cast<const uint8_t *>(buf);
    uint64_t off = addr % PageBytes;
    if (off + len <= PageBytes) {
        std::memcpy(touchPage(addr).data() + off, in, len);
        return;
    }
    while (len > 0) {
        off = addr % PageBytes;
        uint64_t chunk = std::min(len, PageBytes - off);
        Page &page = touchPage(addr);
        std::memcpy(page.data() + off, in, chunk);
        addr += chunk;
        in += chunk;
        len -= chunk;
    }
}

namespace
{

/** One resident page's snapshot record: its number and bytes. */
template <typename N, typename P>
auto
pageRecord(N &num, P &page)
{
    return [&](auto &f) {
        f("page", num);
        f("data", Base64Bytes{page});
    };
}

} // namespace

json::Value
SparseMemory::encode() const
{
    std::vector<uint64_t> nums;
    nums.reserve(pages.size());
    for (const auto &[num, page] : pages)
        nums.push_back(num);
    std::sort(nums.begin(), nums.end());

    json::Value out = json::Value::array();
    for (uint64_t num : nums)
        out.push(json::encodeObject(pageRecord(num, *pages.at(num))));
    return out;
}

bool
SparseMemory::decode(const json::Value &v, std::string *why)
{
    clear();
    return json::decodeAscending<uint64_t>(
        v,
        [this](const json::Value &item, uint64_t &num, std::string *why) {
            auto page = std::make_unique<Page>();
            if (!json::decodeObject(item, pageRecord(num, *page), why))
                return false;
            pages[num] = std::move(page);
            return true;
        },
        why);
}

void
SparseMemory::fill(uint64_t addr, uint8_t byte, uint64_t len)
{
    while (len > 0) {
        uint64_t off = addr % PageBytes;
        uint64_t chunk = std::min(len, PageBytes - off);
        Page &page = touchPage(addr);
        std::memset(page.data() + off, byte, chunk);
        addr += chunk;
        len -= chunk;
    }
}

} // namespace chex
